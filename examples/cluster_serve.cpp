// The serving-layer policy comparison as a CLI: the Gribble DDS anecdote
// (Section 2.2.1) played out on the src/cluster/ KV service, one fault from
// the Section 2 catalog on node 0, four reaction designs side by side:
//   ignore-stutter, eject-on-stutter, proportional-share, prop-hedged.
//
//   $ ./examples/cluster_serve [fault] [threads] [out_dir]
//
// fault:   slow | gc | cpu | mem | crash        (default "slow")
// threads: sweep worker threads (default FST_SWEEP_THREADS or hardware).
// out_dir: where cluster_serve.json / cluster_serve.csv land (default ".";
//          pass "" to skip writing). The JSON is byte-identical for any
//          thread count — CI diffs a 1-thread run against a 4-thread run.
//
// Under the persistent "slow" fault the three classic designs land on
// closed-form goodput: ignore <= lambda - mu/s (the slow node's answers all
// blow the deadline), eject ~= (N-1)*mu (its residual capacity is wasted),
// proportional-share ~= lambda (every node contributes what it can).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/experiment.h"
#include "src/analysis/table.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/fleet.h"
#include "src/devices/modulators.h"
#include "src/faults/catalog.h"
#include "src/harness/sweep.h"
#include "src/obs/export.h"
#include "src/simcore/simulator.h"

namespace {

constexpr int kNodes = 4;
constexpr double kMu = 100.0;      // ops/s per healthy node
constexpr double kSlowFactor = 2.0;
constexpr double kLambda = 320.0;  // between (N-1)*mu and (N-1)*mu + mu/s
constexpr double kSeconds = 10.0;

enum class FaultKind { kSlow, kGc, kCpu, kMem, kCrash };

const char* FaultName(FaultKind f) {
  switch (f) {
    case FaultKind::kSlow:
      return "slow";
    case FaultKind::kGc:
      return "gc";
    case FaultKind::kCpu:
      return "cpu";
    case FaultKind::kMem:
      return "mem";
    case FaultKind::kCrash:
      return "crash";
  }
  return "?";
}

bool ParseFault(const char* arg, FaultKind* out) {
  for (FaultKind f : {FaultKind::kSlow, FaultKind::kGc, FaultKind::kCpu,
                      FaultKind::kMem, FaultKind::kCrash}) {
    if (std::strcmp(arg, FaultName(f)) == 0) {
      *out = f;
      return true;
    }
  }
  return false;
}

std::unique_ptr<fst::ReactionPolicy> MakePolicy(int policy) {
  switch (policy) {
    case 0:
      return std::make_unique<fst::IgnoreStutterPolicy>();
    case 1:
      return std::make_unique<fst::EjectOnStutterPolicy>();
    default:
      return std::make_unique<fst::ProportionalSharePolicy>(8.0);
  }
}

fst::SweepSpec ServeSpec(FaultKind fault) {
  fst::SweepSpec spec;
  spec.name = std::string("cluster_serve_") + FaultName(fault);
  spec.axes = {
      {"policy",
       {0, 1, 2, 3},
       {"ignore-stutter", "eject-on-stutter", "proportional-share",
        "prop-hedged"}},
  };
  spec.seeds = {21, 22, 23};
  return spec;
}

fst::CellResult ServeCell(FaultKind fault, const fst::CellPoint& point) {
  const int policy = static_cast<int>(point.Value("policy"));

  fst::Simulator sim(point.seed);
  fst::FleetParams fp;
  fp.arrivals_per_sec = kLambda;
  fp.run_for = fst::Duration::Seconds(kSeconds);
  fp.read_fraction = 1.0;
  fp.zipf_s = 0.0;
  fst::ColumnarFleet fleet(sim, fp);

  fst::ClusterParams cp;
  cp.nodes = kNodes;
  cp.shard.replication = 2;
  cp.node.cpu_rate = 1e6;
  cp.read_work = 10000.0;  // 10 ms/op -> kMu ops/s per node
  cp.admission.max_outstanding_per_node = 24;
  cp.slo_deadline = fst::Duration::Millis(300);
  cp.route = policy >= 2 ? fst::RouteMode::kQueueWeighted
                         : fst::RouteMode::kUniform;
  cp.hedge_reads = policy == 3;
  cp.hedge = fst::HedgeParams{fst::Duration::Millis(60), 1};
  fst::KvService svc(sim, cp, MakePolicy(policy));

  switch (fault) {
    case FaultKind::kSlow:
      svc.node(0)->AttachModulator(
          std::make_shared<fst::ConstantFactorModulator>(kSlowFactor));
      break;
    case FaultKind::kGc:
      svc.node(0)->AttachModulator(fst::MakeGarbageCollector(
          sim.rng().Fork(), fst::Duration::Seconds(1.0),
          fst::Duration::Millis(500)));
      break;
    case FaultKind::kCpu:
      svc.node(0)->AttachModulator(fst::MakeCpuHog());
      break;
    case FaultKind::kMem:
      // Overcommit node 0 so its swap penalty engages.
      fst::ApplyMemoryHog(*svc.node(0), cp.node.memory_mb * 1.5);
      break;
    case FaultKind::kCrash:
      sim.ScheduleAt(fst::SimTime::Zero() + fst::Duration::Seconds(3.0),
                     [&svc]() { svc.node(0)->FailStop(); });
      break;
  }

  bool finished = false;
  fleet.Run(svc, [&finished](const fst::FleetResult&) { finished = true; });
  sim.Run();

  fst::CellResult r;
  r.value = finished ? svc.slo().GoodputPerSec(fp.run_for) : 0.0;
  r.fire_digest = sim.fire_digest();
  r.events_fired = sim.events_fired();
  r.metrics.emplace_back("shed_rate", svc.slo().ShedRate());
  r.metrics.emplace_back("p99_ms", svc.slo().P99Ms());
  r.metrics.emplace_back("p999_ms", svc.slo().P999Ms());
  r.metrics.emplace_back("ejections", svc.ejections());
  r.metrics.emplace_back("reweights", svc.reweights());
  r.metrics.emplace_back("hedges",
                         static_cast<double>(svc.hedge_stats().hedges_launched));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  FaultKind fault = FaultKind::kSlow;
  if (argc > 1 && !ParseFault(argv[1], &fault)) {
    std::fprintf(stderr, "unknown fault '%s' (want slow|gc|cpu|mem|crash)\n",
                 argv[1]);
    return 1;
  }
  const int threads = argc > 2 ? std::atoi(argv[2]) : 0;
  const std::string out_dir = argc > 3 ? argv[3] : ".";

  const fst::SweepSpec spec = ServeSpec(fault);
  fst::SweepRunner runner(threads);
  std::printf("cluster serving comparison: fault=%s, lambda=%.0f ops/s, "
              "N=%d nodes x mu=%.0f ops/s, R=2, %zu cells, %d threads\n\n",
              FaultName(fault), kLambda, kNodes, kMu, spec.CellCount(),
              runner.threads());

  const std::vector<fst::CellResult> results = runner.Run(
      spec, [fault](const fst::CellPoint& p) { return ServeCell(fault, p); });
  const std::vector<fst::SweepGroup> groups =
      fst::SummarizeByConfig(spec, results);

  fst::Table table({"policy", "goodput/s", "ci95", "shed%", "p99 ms",
                    "p999 ms", "eject", "reweight"});
  for (size_t g = 0; g < groups.size(); ++g) {
    double shed = 0.0, p99 = 0.0, p999 = 0.0, ejects = 0.0, reweights = 0.0;
    int n = 0;
    for (const auto& r : results) {
      if (r.point.config_index != groups[g].config_index) {
        continue;
      }
      ++n;
      for (const auto& m : r.metrics) {
        if (m.first == "shed_rate") shed += m.second;
        if (m.first == "p99_ms") p99 += m.second;
        if (m.first == "p999_ms") p999 += m.second;
        if (m.first == "ejections") ejects += m.second;
        if (m.first == "reweights") reweights += m.second;
      }
    }
    const double inv = n > 0 ? 1.0 / n : 0.0;
    table.AddRow({spec.axes[0].Label(groups[g].axis_index[0]),
                  fst::FormatDouble(groups[g].stats.mean, 1),
                  fst::FormatDouble(groups[g].stats.ci95, 2),
                  fst::FormatDouble(100.0 * shed * inv, 1),
                  fst::FormatDouble(p99 * inv, 1),
                  fst::FormatDouble(p999 * inv, 1),
                  fst::FormatDouble(ejects * inv, 1),
                  fst::FormatDouble(reweights * inv, 1)});
  }
  std::printf("%s\n", table.Render().c_str());

  // Paper-shape verdicts. Group order follows the policy axis:
  // 0=ignore, 1=eject, 2=proportional, 3=hedged.
  const double ignore_mean = groups[0].stats.mean;
  const double eject_mean = groups[1].stats.mean;
  const double prop_mean = groups[2].stats.mean;
  fst::ShapeReport report;
  if (fault == FaultKind::kSlow) {
    // Closed form for the persistent stutter (see header comment).
    report.CheckAtMost("ignore <= lambda - mu/s", ignore_mean,
                       1.05 * (kLambda - kMu / kSlowFactor));
    report.Check("eject ~= (N-1)*mu", eject_mean, (kNodes - 1) * kMu, 0.10);
    report.CheckAtLeast("proportional ~= lambda", prop_mean, 0.93 * kLambda);
    report.CheckAtLeast("proportional > eject", prop_mean,
                        eject_mean + 0.3 * (kLambda - (kNodes - 1) * kMu));
    report.CheckAtLeast("proportional > ignore", prop_mean,
                        ignore_mean + 0.3 * (kMu / kSlowFactor));
  } else if (fault == FaultKind::kCrash) {
    // Fail-stop: every design ejects on kFailed; survivors saturate at
    // (N-1)*mu < lambda.
    report.Check("eject ~= (N-1)*mu", eject_mean, (kNodes - 1) * kMu, 0.12);
    report.Check("proportional ~= (N-1)*mu", prop_mean, (kNodes - 1) * kMu,
                 0.12);
  } else {
    // Bursty / interference faults: the performance-aware designs must not
    // lose to the fail-stop illusion.
    report.CheckAtLeast("proportional >= ignore", prop_mean,
                        0.98 * ignore_mean);
    report.CheckAtLeast("eject >= 0.9 * proportional", eject_mean,
                        0.90 * prop_mean);
  }
  std::printf("%s\n", report.Render().c_str());

  if (!out_dir.empty()) {
    const std::string json_path = out_dir + "/cluster_serve.json";
    const std::string csv_path = out_dir + "/cluster_serve.csv";
    bool ok = fst::WriteTextFile(json_path,
                                 fst::SweepReportJson(spec, results));
    ok = fst::WriteTextFile(csv_path, fst::SweepReportCsv(spec, results)) && ok;
    if (!ok) {
      std::fprintf(stderr, "failed writing %s / %s\n", json_path.c_str(),
                   csv_path.c_str());
      return 1;
    }
    std::printf("wrote %s and %s\n", json_path.c_str(), csv_path.c_str());
  }
  return report.AllPass() ? 0 : 2;
}

// Serving-layer ablation — the Section 3.1 argument at cluster scale.
//
// The sharded, replicated KV service of src/cluster/ under a persistent
// slowdown of some fraction of its nodes, swept over the reaction design:
//   ignore-stutter      — uniform routing, no reaction: the slow nodes'
//                         bounded queues turn into deadline misses;
//   eject-on-stutter    — detection ejects the stutterers and the ring
//                         rebalances: clean, but their residual capacity
//                         is wasted and survivors saturate;
//   proportional-share  — reweighted, queue-aware routing keeps every
//                         node contributing what it can;
//   prop-hedged         — proportional routing plus hedged reads, the
//                         request-level mitigation for bursty stutter.
// The primary metric is SLO goodput (acks within the deadline) per second;
// shed rate and tail percentiles ride along as secondary metrics.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/fleet.h"

namespace fst {
namespace {

constexpr int kNodes = 4;
constexpr double kLambda = 320.0;
constexpr double kSeconds = 10.0;

std::unique_ptr<ReactionPolicy> ClusterPolicy(int64_t arg) {
  switch (arg) {
    case 0:
      return std::make_unique<IgnoreStutterPolicy>();
    case 1:
      return std::make_unique<EjectOnStutterPolicy>();
    default:
      return std::make_unique<ProportionalSharePolicy>(8.0);
  }
}

const char* ClusterPolicyName(int64_t arg) {
  switch (arg) {
    case 0:
      return "ignore-stutter";
    case 1:
      return "eject-on-stutter";
    case 2:
      return "proportional-share";
    default:
      return "prop-hedged";
  }
}

struct ClusterRun {
  int64_t ops_issued = 0;
  double goodput_per_sec = 0.0;
  double shed_rate = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  int ejections = 0;
  int reweights = 0;
  int64_t hedges = 0;
  uint64_t fire_digest = 0;
  uint64_t events_fired = 0;
};

// One serving run: `slow_frac` of the nodes persistently 2x slow.
ClusterRun RunCluster(int64_t policy_arg, double slow_frac, uint64_t seed) {
  Simulator sim(seed);
  BenchTelemetry telemetry("cluster_" +
                           std::string(ClusterPolicyName(policy_arg)) + "_f" +
                           std::to_string(static_cast<int>(slow_frac * 100)));
  FleetParams fp;
  fp.arrivals_per_sec = kLambda;
  fp.run_for = Duration::Seconds(kSeconds);
  fp.read_fraction = 1.0;
  fp.zipf_s = 0.0;
  ColumnarFleet fleet(sim, fp);

  ClusterParams cp;
  cp.nodes = kNodes;
  cp.shard.replication = 2;
  cp.node.cpu_rate = 1e6;
  cp.read_work = 10000.0;
  cp.admission.max_outstanding_per_node = 24;
  cp.slo_deadline = Duration::Millis(300);
  cp.route = policy_arg >= 2 ? RouteMode::kQueueWeighted : RouteMode::kUniform;
  cp.hedge_reads = policy_arg == 3;
  cp.hedge = HedgeParams{Duration::Millis(60), 1};
  KvService svc(sim, cp, ClusterPolicy(policy_arg),
                telemetry.recorder_or_null());
  const int n_slow = static_cast<int>(slow_frac * kNodes + 0.5);
  for (int i = 0; i < n_slow; ++i) {
    svc.node(i)->AttachModulator(
        std::make_shared<ConstantFactorModulator>(2.0));
  }

  ClusterRun out;
  bool finished = false;
  fleet.Run(svc, [&](const FleetResult& r) {
    out.ops_issued = r.ops_issued;
    finished = true;
  });
  sim.Run();
  if (finished) {
    out.goodput_per_sec = svc.slo().GoodputPerSec(fp.run_for);
    out.shed_rate = svc.slo().ShedRate();
    out.p99_ms = svc.slo().P99Ms();
    out.p999_ms = svc.slo().P999Ms();
  }
  out.ejections = svc.ejections();
  out.reweights = svc.reweights();
  out.hedges = svc.hedge_stats().hedges_launched;
  out.fire_digest = sim.fire_digest();
  out.events_fired = sim.events_fired();
  telemetry.Export();
  return out;
}

// The policy × slow-fraction grid as a declarative sweep. slow_frac_x100
// keeps axis values integral: 25 -> 1 of 4 nodes slow, 50 -> 2 of 4.
SweepSpec ClusterSpec() {
  SweepSpec spec;
  spec.name = "cluster_serving";
  spec.axes = {
      {"policy",
       {0, 1, 2, 3},
       {"ignore-stutter", "eject-on-stutter", "proportional-share",
        "prop-hedged"}},
      {"slow_frac_x100", {25, 50}, {}},
  };
  spec.seeds = {3, 4};
  return spec;
}

CellResult ClusterCell(const CellPoint& point) {
  const ClusterRun run =
      RunCluster(static_cast<int64_t>(point.Value("policy")),
                 point.Value("slow_frac_x100") / 100.0, point.seed);
  CellResult r;
  r.value = run.goodput_per_sec;
  r.fire_digest = run.fire_digest;
  r.events_fired = run.events_fired;
  r.metrics.emplace_back("shed_rate", run.shed_rate);
  r.metrics.emplace_back("p99_ms", run.p99_ms);
  r.metrics.emplace_back("ejections", run.ejections);
  r.metrics.emplace_back("reweights", run.reweights);
  return r;
}

void SetServeCounters(benchmark::State& state, const ClusterRun& result) {
  state.counters["goodput_per_sec"] = result.goodput_per_sec;
  state.counters["shed_rate"] = result.shed_rate;
  state.counters["p99_ms"] = result.p99_ms;
  state.counters["p999_ms"] = result.p999_ms;
  state.counters["ejections"] = result.ejections;
  state.counters["reweights"] = result.reweights;
  state.counters["hedges"] = static_cast<double>(result.hedges);
  // Simulated serving ops retired per second of wall clock — the
  // sim-throughput headline the columnar front end targets.
  state.counters["sim_ops_per_sec"] = benchmark::Counter(
      static_cast<double>(result.ops_issued),
      benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(ClusterPolicyName(state.range(0)));
}

// Args: {policy, slow_frac_x100}.
void BM_ClusterServe(benchmark::State& state) {
  const double slow_frac = static_cast<double>(state.range(1)) / 100.0;
  ClusterRun result;
  for (auto _ : state) {
    result = RunCluster(state.range(0), slow_frac, 3);
  }
  SetServeCounters(state, result);
}
BENCHMARK(BM_ClusterServe)
    ->ArgsProduct({{0, 1, 2, 3}, {25, 50}})
    ->Unit(benchmark::kMillisecond);

// The whole grid through the parallel SweepRunner. "eject_waste_gps"
// aggregates the goodput proportional-share sustains above ejection across
// the grid — the serving-layer form of the Section 3.1 waste number.
void BM_ClusterSweepAll(benchmark::State& state) {
  const SweepSpec spec = ClusterSpec();
  std::vector<CellResult> results;
  for (auto _ : state) {
    results = RunSweep(spec, ClusterCell);
  }
  double waste = 0.0;
  for (const auto& r : results) {
    if (r.point.Value("policy") == 2) {
      for (const auto& e : results) {
        if (e.point.Value("policy") == 1 && e.point.seed == r.point.seed &&
            e.point.Value("slow_frac_x100") ==
                r.point.Value("slow_frac_x100")) {
          waste += r.value - e.value;
        }
      }
    }
  }
  state.counters["cells"] = static_cast<double>(results.size());
  state.counters["eject_waste_gps"] = waste;
  state.counters["cells_per_sec"] = benchmark::Counter(
      static_cast<double>(results.size()),
      benchmark::Counter::kIsIterationInvariantRate);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(results.size()));
}
BENCHMARK(BM_ClusterSweepAll)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fst

FST_BENCH_MAIN(cluster);

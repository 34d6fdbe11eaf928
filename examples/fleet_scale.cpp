// Million-client serving cell on the columnar fleet core, as a CLI.
//
// Two modes, each a CI gate for one of the columnar front end's claims:
//
//   cell [clients] [nodes] [lambda] [seconds]
//       One open-loop serving cell with per-client attribution (default
//       1,000,000 clients against 100 nodes at 50k ops/s for 60 simulated
//       seconds). Memory is bounded by the SoA layout: the op table holds
//       only in-flight rows and the attribution plane is one 24-byte tally
//       per client. Prints issued/ok counts, the fire, client and outcome
//       digests, and wall-clock sim throughput. Run twice, the digests must
//       match; CI compares them across runs.
//
//   sweep [threads_a] [threads_b]
//       The E22-style mini grid through the parallel SweepRunner at two
//       thread counts (default 1 vs 4); the sweep report JSON must be
//       byte-identical. Exit 2 otherwise.
//
// Exit status: 0 on success, 1 on a malformed or rejected argument, 2 on
// a determinism violation.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "examples/cli_args.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/fleet.h"
#include "src/core/policy.h"
#include "src/devices/modulators.h"
#include "src/harness/sweep.h"
#include "src/simcore/simulator.h"

namespace {

struct CellSpec {
  uint32_t clients = 0;
  int nodes = 4;
  double lambda = 320.0;
  double seconds = 10.0;
  int policy = 2;  // 0 = ignore-stutter, 2 = proportional-share
  uint64_t seed = 3;
  double read_work = 10000.0;
};

struct CellOut {
  fst::FleetResult fleet;
  std::string slo_json;
  double goodput_per_sec = 0.0;
  uint64_t fire_digest = 0;
  uint64_t client_digest = 0;
  uint64_t outcome_digest = 0;
  uint64_t events = 0;
  double wall_seconds = 0.0;
};

std::unique_ptr<fst::ReactionPolicy> PolicyFor(int kind) {
  if (kind == 0) {
    return std::make_unique<fst::IgnoreStutterPolicy>();
  }
  return std::make_unique<fst::ProportionalSharePolicy>(8.0);
}

CellOut RunCell(const CellSpec& spec) {
  const auto wall0 = std::chrono::steady_clock::now();
  fst::Simulator sim(spec.seed);
  fst::ClusterParams cp;
  cp.nodes = spec.nodes;
  cp.shard.replication = spec.nodes >= 3 ? 3 : 2;
  cp.node.cpu_rate = 1e6;
  cp.read_work = spec.read_work;
  cp.admission.max_outstanding_per_node = 24;
  cp.slo_deadline = fst::Duration::Millis(300);
  cp.route = spec.policy == 2 ? fst::RouteMode::kQueueWeighted
                              : fst::RouteMode::kUniform;
  fst::KvService svc(sim, cp, PolicyFor(spec.policy));
  svc.node(0)->AttachModulator(
      std::make_shared<fst::ConstantFactorModulator>(2.0));

  fst::FleetParams fp;
  fp.arrivals_per_sec = spec.lambda;
  fp.run_for = fst::Duration::Seconds(spec.seconds);
  fp.read_fraction = 1.0;
  fp.zipf_s = 1.1;
  fp.key_space = 1 << 20;

  CellOut out;
  bool finished = false;
  fst::ColumnarFleetParams cfp;
  cfp.base = fp;
  cfp.num_clients = spec.clients;
  fst::ColumnarFleet fleet(sim, cfp);
  fleet.Run(svc, [&](const fst::FleetResult& r) {
    out.fleet = r;
    finished = true;
  });
  sim.Run();
  out.client_digest = fleet.ClientDigest();
  if (!finished) {
    std::fprintf(stderr, "cell did not drain\n");
    std::exit(2);
  }
  out.slo_json = svc.slo().ReportJson(fp.run_for);
  out.goodput_per_sec = svc.slo().GoodputPerSec(fp.run_for);
  out.fire_digest = sim.fire_digest();
  out.outcome_digest = svc.outcome_digest();
  out.events = sim.events_fired();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: fleet_scale [cell [clients] [nodes] [lambda] "
               "[seconds]]\n"
               "       fleet_scale sweep [threads_a] [threads_b]\n");
  return 1;
}

int RunCellMode(int argc, char** argv) {
  CellSpec spec;
  int clients = 1000000;
  spec.nodes = 100;
  spec.lambda = 50000.0;
  spec.seconds = 60.0;
  if (argc > 6 || (argc > 2 && !(fst::ParseWholeInt(argv[2], &clients) &&
                                 clients >= 0)) ||
      (argc > 3 && !fst::ParseWholeInt(argv[3], &spec.nodes)) ||
      (argc > 4 && !fst::ParseFiniteDouble(argv[4], &spec.lambda)) ||
      // The run length must fit a Duration's integer nanoseconds.
      (argc > 5 && !(fst::ParseFiniteDouble(argv[5], &spec.seconds) &&
                     std::abs(spec.seconds) < 9e9))) {
    return Usage();
  }
  spec.clients = static_cast<uint32_t>(clients);
  // Scale per-op work so the default 100-node cell runs ~70% loaded
  // (100 nodes x 1k ops/s capacity vs 50k/s offered).
  spec.read_work = 1000.0;

  std::printf("fleet cell: %u clients, %d nodes, %.0f ops/s for %.0fs sim\n",
              spec.clients, spec.nodes, spec.lambda, spec.seconds);
  CellOut out;
  try {
    out = RunCell(spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "fleet_scale: %s\n", e.what());
    return 1;
  }
  std::printf("  issued=%lld ok=%lld failed=%lld goodput/s=%.1f\n",
              static_cast<long long>(out.fleet.ops_issued),
              static_cast<long long>(out.fleet.ops_ok),
              static_cast<long long>(out.fleet.ops_failed),
              out.goodput_per_sec);
  std::printf(
      "  fire_digest=%016llx client_digest=%016llx events=%llu "
      "outcome_digest=%016llx\n",
      static_cast<unsigned long long>(out.fire_digest),
      static_cast<unsigned long long>(out.client_digest),
      static_cast<unsigned long long>(out.events),
      static_cast<unsigned long long>(out.outcome_digest));
  std::printf("  wall=%.1fs sim_ops_per_wall_sec=%.0f\n", out.wall_seconds,
              static_cast<double>(out.fleet.ops_issued) /
                  (out.wall_seconds > 0 ? out.wall_seconds : 1.0));
  return 0;
}

int RunSweepMode(int argc, char** argv) {
  int threads_a = 1;
  int threads_b = 4;
  if (argc > 4 || (argc > 2 && !fst::ParseWholeInt(argv[2], &threads_a)) ||
      (argc > 3 && !fst::ParseWholeInt(argv[3], &threads_b))) {
    return Usage();
  }
  fst::SweepSpec spec;
  spec.name = "fleet_scale";
  spec.axes = {{"policy", {0, 2}, {"ignore-stutter", "proportional-share"}}};
  spec.seeds = {3, 4};
  const auto cell = [](const fst::CellPoint& point) {
    CellSpec cs;
    cs.policy = static_cast<int>(point.Value("policy"));
    cs.seed = point.seed;
    cs.seconds = 5.0;
    cs.clients = 10000;
    const CellOut out = RunCell(cs);
    fst::CellResult r;
    r.point = point;
    r.value = out.goodput_per_sec;
    r.fire_digest = out.fire_digest;
    r.events_fired = out.events;
    r.metrics.emplace_back("ops_ok", static_cast<double>(out.fleet.ops_ok));
    r.metrics.emplace_back(
        "client_digest_lo32",
        static_cast<double>(out.client_digest & 0xffffffffull));
    return r;
  };
  const auto a = fst::SweepRunner(threads_a).Run(spec, cell);
  const auto b = fst::SweepRunner(threads_b).Run(spec, cell);
  const std::string ja = fst::SweepReportJson(spec, a);
  const std::string jb = fst::SweepReportJson(spec, b);
  if (ja != jb) {
    std::fprintf(stderr,
                 "sweep: %d-thread vs %d-thread reports differ\n%s\n---\n%s\n",
                 threads_a, threads_b, ja.c_str(), jb.c_str());
    return 2;
  }
  std::printf("sweep: %zu cells byte-identical at %d vs %d threads\n",
              a.size(), threads_a, threads_b);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "cell";
  if (mode == "cell") {
    return RunCellMode(argc, argv);
  }
  if (mode == "sweep") {
    return RunSweepMode(argc, argv);
  }
  return Usage();
}

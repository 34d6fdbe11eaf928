// Deterministic chaos campaign for the serving layer as a CLI.
//
// Each seed derives a random fault scenario (crash-restarts, flapping
// nodes, slowdowns, GC pauses — the Section 2 catalog composed by the
// src/chaos/ DSL), runs the KvService with crash recovery, retry, and
// anti-entropy repair enabled, and checks the run's invariants:
//
//   * no acked write lost,
//   * replication factor restored after repair,
//   * every node back up, registry converged, weights ramped to 1.0.
//
//   $ ./examples/chaos_campaign [seeds] [threads] [out_dir] [live]
//
// seeds:   campaign size, a whole number >= 1 (default 50).
// threads: sweep worker threads, a whole number (default, or <= 0:
//          FST_SWEEP_THREADS or hardware);
//          the campaign JSON is byte-identical for any thread count — CI
//          diffs a 1-thread run against a 4-thread run.
// out_dir: where chaos_campaign.json lands (default "."; "" skips).
// live:    the literal string "live" arms the online telemetry plane:
//          every seed runs with expectation tracking + SLO burn alerting,
//          scenarios add sub-threshold gray stutters, and the campaign
//          additionally writes chaos_bundle.json (unified telemetry
//          bundle) and chaos_report.html (self-contained viewer) to
//          out_dir — both byte-identical at any thread count.
//          The literal string "control" instead arms the consensus-backed
//          control plane: every seed routes shard-map mutations through a
//          replicated metadata quorum, scenarios add leader-targeted
//          stutter faults (node=leader), and the consensus invariants —
//          one leader per term, no committed-entry loss, replica
//          agreement, bounded unavailability — are checked on top of the
//          robustness ones. The summary line reports election count,
//          false-failover rate, and reconfiguration latency (E28).
//
//   $ ./examples/chaos_campaign replay <seed> <dsl|-> [live|control]
//
// replay:  runs one seed's cell as the campaign in that mode would, with
//          `-` for the seed's own generated schedule or a DSL script in
//          its place, and prints the cell's fire and outcome digests, its
//          violations and its schedule as one line of DSL.
//
// A malformed number, an unknown mode word or an extra argument prints
// usage and exits 1.
//
// Exit status: 0 when every seed holds every invariant, 2 otherwise (the
// offending seeds print their scenario DSL, fault timeline and replay
// line, which is everything needed to replay the failure
// deterministically).
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "examples/cli_args.h"
#include "src/chaos/campaign.h"
#include "src/obs/export.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: chaos_campaign [seeds] [threads] [out_dir] "
               "[live|control]\n"
               "       chaos_campaign replay <seed> <dsl|-> [live|control]\n");
  return 1;
}

bool IsMode(const std::string& mode) {
  return mode.empty() || mode == "live" || mode == "control";
}

// The campaign params of a mode: "" (plain), "live" or "control".
fst::CampaignParams ParamsFor(const std::string& mode) {
  fst::CampaignParams params;
  if (mode == "live") {
    params.telemetry = true;
    // Two gray stutters per seed: the sub-enter_deficit slowdowns the
    // legacy detectors are blind to and the live plane exists to score.
    params.scenario.gray_faults = 2;
  } else if (mode == "control") {
    params.control_plane = true;
    params.name = "chaos_control";
  }
  return params;
}

int Replay(int argc, char** argv) {
  char* end = nullptr;
  const uint64_t seed = argc > 2 ? std::strtoull(argv[2], &end, 10) : 0;
  const std::string mode = argc > 4 ? argv[4] : "";
  if (argc < 4 || argc > 5 || end == argv[2] || *end != '\0' ||
      !IsMode(mode)) {
    return Usage();
  }
  const std::string dsl = argv[3];
  fst::CellSpec spec = fst::ChaosCellSpec(ParamsFor(mode), seed);
  try {
    if (dsl != "-") {
      spec.schedule = fst::ParseDsl(dsl);
    }
    const fst::CellOutcome o = fst::RunCell(spec);
    std::printf("chaos replay: seed %llu%s%s\n%s",
                static_cast<unsigned long long>(seed), mode.empty() ? "" : " ",
                mode.c_str(), fst::ReplayReport(o).c_str());
    return o.ok ? 0 : 2;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "replay: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "replay") {
    return Replay(argc, argv);
  }
  const std::string mode = argc > 4 ? argv[4] : "";
  fst::CampaignParams params = ParamsFor(mode);
  if (argc > 5 || !IsMode(mode) ||
      (argc > 1 &&
       (!fst::ParseWholeInt(argv[1], &params.seeds) || params.seeds < 1)) ||
      (argc > 2 && !fst::ParseWholeInt(argv[2], &params.threads))) {
    return Usage();
  }
  const std::string out_dir = argc > 3 ? argv[3] : ".";

  std::printf("chaos campaign: %d seeds, %d nodes, %.0fs serving + %.0fs "
              "settle per seed\n\n",
              params.seeds, params.nodes, params.run_for.ToSeconds(),
              params.settle.ToSeconds());

  const fst::CampaignResult result = fst::RunCampaign(params);

  std::printf("  %-6s %-3s %8s %8s %8s %9s %7s %7s\n", "seed", "ok",
              "goodput", "crashes", "recover", "repaired", "misses",
              "retries");
  for (const fst::SeedOutcome& o : result.outcomes) {
    std::printf("  %-6llu %-3s %8.1f %8d %8d %9lld %7lld %7lld\n",
                static_cast<unsigned long long>(o.seed), o.ok ? "ok" : "XX",
                o.goodput_per_sec, o.crashes, o.recoveries,
                static_cast<long long>(o.keys_repaired),
                static_cast<long long>(o.read_misses),
                static_cast<long long>(o.retries));
  }
  std::printf("\n%d/%d seeds violated invariants\n", result.violations,
              params.seeds);
  if (params.telemetry) {
    std::printf(
        "telemetry: %d faults (%d gray), precision %.3f, recall %.3f, "
        "gray missed by legacy %d, gray scored live %d\n",
        result.scorecard.faults, result.scorecard.gray_faults,
        result.scorecard.precision(), result.scorecard.recall(),
        result.scorecard.gray_legacy_missed, result.scorecard.gray_live_scored);
  }
  if (params.control_plane) {
    // The E28 aggregates: how often a stuttering-but-alive leader was
    // deposed, and what reconfiguration latency the quorum imposed.
    int elections = 0;
    int false_failovers = 0;
    double reconfig_mean_sum = 0.0;
    double reconfig_max = 0.0;
    double max_leaderless = 0.0;
    int seeds_with_reconfigs = 0;
    for (const fst::SeedOutcome& o : result.outcomes) {
      elections += o.elections;
      false_failovers += o.false_failovers;
      if (o.reconfigs > 0) {
        reconfig_mean_sum += o.reconfig_mean_ms;
        ++seeds_with_reconfigs;
      }
      if (o.reconfig_max_ms > reconfig_max) {
        reconfig_max = o.reconfig_max_ms;
      }
      if (o.max_leaderless_s > max_leaderless) {
        max_leaderless = o.max_leaderless_s;
      }
    }
    std::printf(
        "control plane: %d elections, %d false failovers (%.3f/seed), "
        "reconfig mean %.2fms max %.2fms, max leaderless %.3fs\n",
        elections, false_failovers,
        static_cast<double>(false_failovers) / params.seeds,
        seeds_with_reconfigs > 0 ? reconfig_mean_sum / seeds_with_reconfigs
                                 : 0.0,
        reconfig_max, max_leaderless);
  }
  for (const fst::SeedOutcome& o : result.outcomes) {
    if (o.ok) {
      continue;
    }
    std::printf("\nseed %llu:\n", static_cast<unsigned long long>(o.seed));
    for (const std::string& v : o.violations) {
      std::printf("  violation: %s\n", v.c_str());
    }
    std::printf("  scenario:\n%s", o.dsl.c_str());
    for (const std::string& line : o.fault_timeline) {
      std::printf("  fault: %s\n", line.c_str());
    }
    std::printf("  replay: chaos_campaign replay %llu '%s'%s\n",
                static_cast<unsigned long long>(o.seed),
                fst::OneLineDsl(o.dsl).c_str(),
                params.telemetry       ? " live"
                : params.control_plane ? " control"
                                       : "");
  }

  if (!out_dir.empty()) {
    const std::string path = out_dir + "/chaos_campaign.json";
    if (!fst::WriteTextFile(path, result.ReportJson())) {
      std::fprintf(stderr, "failed writing %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    if (params.telemetry) {
      if (!result.WriteBundle(out_dir)) {
        std::fprintf(stderr, "failed writing telemetry bundle in %s\n",
                     out_dir.c_str());
        return 1;
      }
      std::printf("wrote %s/%s_bundle.json and %s/%s_report.html\n",
                  out_dir.c_str(), params.name.c_str(), out_dir.c_str(),
                  params.name.c_str());
    }
  }
  return result.violations == 0 ? 0 : 2;
}

// The resilience-pattern ablation campaign as a CLI.
//
// Runs the full grid from src/resilience/campaign.h — scenario classes
// {clean, gray, correlated, retrystorm} x patterns {none, budget,
// rejuvenation, eviction, nmr} x seeds, plus the serial checkpoint/rollback
// sub-grid over sort and transpose — and prints the policy scorecard:
// per-cell goodput retained, gray exposure, MTTR, pattern actions, and the
// retry-storm collapse verdicts.
//
//   $ ./examples/resilience_campaign [seeds] [threads] [out_dir] [control]
//
// seeds:   seeds per grid cell, a whole number >= 1 (default 8).
// threads: sweep worker threads, a whole number (default, or <= 0:
//          FST_SWEEP_THREADS or hardware);
//          resilience_scorecard.json is byte-identical at any count — CI
//          diffs a 1-thread run against a 4-thread run.
// out_dir: where resilience_scorecard.json lands (default "."; "" skips).
// control: the literal string "control" routes every pattern action through
//          the consensus-backed control plane and checks the consensus
//          invariants on top of the robustness ones.
//
//   $ ./examples/resilience_campaign replay <scenario> <pattern> <seed> <dsl|-> [control]
//
// replay:  runs one serving cell as the campaign would (scenario and
//          pattern by name), with `-` for the seed's own generated schedule
//          or a DSL script in its place, and prints the cell's fire and
//          outcome digests, its violations and its schedule as one line of
//          DSL; exit 0 when the cell holds every invariant, 2 otherwise.
//
// A malformed number, an unknown mode word or an extra argument prints
// usage and exits 1.
//
// Exit status: 0 when every invariant holds AND the metastable demo holds;
// 2 otherwise. The demo is the paper's retry-storm argument made
// executable: with the retry budget disabled (pattern `none`) every storm
// cell must collapse — goodput stays under half its pre-trigger rate after
// the trigger clears — and with the budget enabled (pattern `budget`) no
// storm cell may collapse and no invariant may break.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "examples/cli_args.h"
#include "src/obs/export.h"
#include "src/resilience/campaign.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: resilience_campaign [seeds] [threads] [out_dir] "
               "[control]\n"
               "       resilience_campaign replay <scenario> <pattern> <seed> "
               "<dsl|-> [control]\n");
  return 1;
}

bool IsMode(const std::string& mode) {
  return mode.empty() || mode == "control";
}

// The campaign params of a mode: "" (plain) or "control".
fst::ResilienceCampaignParams ParamsFor(const std::string& mode) {
  fst::ResilienceCampaignParams params;
  if (mode == "control") {
    params.control_plane = true;
    params.name = "resilience_control";
  }
  return params;
}

int Replay(int argc, char** argv) {
  int scenario = -1;
  int pattern = -1;
  for (int s = 0; argc > 2 && s < fst::kResilienceScenarios; ++s) {
    if (std::string(argv[2]) ==
        fst::ResilienceScenarioName(static_cast<fst::ResilienceScenario>(s))) {
      scenario = s;
    }
  }
  for (int q = 0; argc > 3 && q < fst::kResiliencePatterns; ++q) {
    if (std::string(argv[3]) ==
        fst::ResiliencePatternName(static_cast<fst::ResiliencePattern>(q))) {
      pattern = q;
    }
  }
  char* end = nullptr;
  const uint64_t seed = argc > 4 ? std::strtoull(argv[4], &end, 10) : 0;
  const std::string mode = argc > 6 ? argv[6] : "";
  if (argc < 6 || argc > 7 || scenario < 0 || pattern < 0 ||
      end == argv[4] || *end != '\0' || !IsMode(mode)) {
    return Usage();
  }
  const std::string dsl = argv[5];
  fst::CellSpec spec = fst::ResilienceCellSpec(
      ParamsFor(mode), static_cast<fst::ResilienceScenario>(scenario),
      static_cast<fst::ResiliencePattern>(pattern), seed);
  try {
    if (dsl != "-") {
      spec.schedule = fst::ParseDsl(dsl);
    }
    const fst::CellOutcome o = fst::RunCell(spec);
    std::printf("resilience replay: %s x %s seed %llu%s%s\n%s", argv[2],
                argv[3], static_cast<unsigned long long>(seed),
                mode.empty() ? "" : " ", mode.c_str(),
                fst::ReplayReport(o).c_str());
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
  fst::ResilienceCampaignParams params = ParamsFor(mode);
  if (argc > 5 || !IsMode(mode) ||
      (argc > 1 &&
       (!fst::ParseWholeInt(argv[1], &params.seeds) || params.seeds < 1)) ||
      (argc > 2 && !fst::ParseWholeInt(argv[2], &params.threads))) {
    return Usage();
  }
  const std::string out_dir = argc > 3 ? argv[3] : ".";

  std::printf(
      "resilience campaign: %d scenarios x %d patterns x %d seeds, %d nodes, "
      "%.0fs serving + %.0fs settle per cell\n\n",
      fst::kResilienceScenarios, fst::kResiliencePatterns, params.seeds,
      params.nodes, params.run_for.ToSeconds(), params.settle.ToSeconds());

  const fst::ResilienceCampaignResult result =
      fst::RunResilienceCampaign(params);

  // The ablation table: one row per (scenario, pattern), aggregated over
  // seeds exactly as in the scorecard JSON.
  std::printf("  %-10s %-12s %8s %9s %8s %8s %7s %9s %5s\n", "scenario",
              "pattern", "goodput", "retained", "gray_s", "mttd_ms", "denied",
              "collapsed", "viol");
  for (int s = 0; s < fst::kResilienceScenarios; ++s) {
    for (int q = 0; q < fst::kResiliencePatterns; ++q) {
      double goodput = 0.0, gray = 0.0;
      int64_t denied = 0;
      int collapsed = 0, storms = 0, viol = 0;
      fst::DetectorScorecard merged;
      for (int i = 0; i < params.seeds; ++i) {
        const fst::ResilienceCellOutcome& o =
            result.outcomes[result.CellIndex(s, q, i)];
        goodput += o.goodput_per_sec;
        gray += o.gray_exposure_s;
        denied += o.denied_budget;
        storms += o.storm ? 1 : 0;
        collapsed += o.collapsed ? 1 : 0;
        viol += o.ok ? 0 : 1;
        merged.Merge(o.scorecard);
      }
      double base = 0.0;
      for (int i = 0; i < params.seeds; ++i) {
        base += result.outcomes[result.CellIndex(0, q, i)].goodput_per_sec;
      }
      const double n = params.seeds > 0 ? params.seeds : 1;
      std::printf("  %-10s %-12s %8.1f %9.3f %8.2f %8.1f %7lld %5d/%-3d %5d\n",
                  fst::ResilienceScenarioName(
                      static_cast<fst::ResilienceScenario>(s)),
                  fst::ResiliencePatternName(
                      static_cast<fst::ResiliencePattern>(q)),
                  goodput / n, base > 0.0 ? goodput / base : 0.0, gray / n,
                  merged.mttd_ms.P50(), static_cast<long long>(denied),
                  collapsed, storms, viol);
    }
  }

  // The metastable demonstration, spelled out per storm seed.
  const int storm = static_cast<int>(fst::ResilienceScenario::kRetryStorm);
  const int none = static_cast<int>(fst::ResiliencePattern::kNone);
  const int budget = static_cast<int>(fst::ResiliencePattern::kBudget);
  int none_collapsed = 0, budget_collapsed = 0, budget_viol = 0;
  std::printf("\nretry-storm cells (budget off -> collapse expected):\n");
  for (int i = 0; i < params.seeds; ++i) {
    const fst::ResilienceCellOutcome& o =
        result.outcomes[result.CellIndex(storm, none, i)];
    std::printf("  seed %-4llu budget=off pre %7.1f/s post %7.1f/s  %s\n",
                static_cast<unsigned long long>(o.seed), o.pre_storm_rate,
                o.post_storm_rate,
                o.collapsed ? "COLLAPSED (metastable)"
                            : "recovered (trigger below threshold)");
    none_collapsed += o.collapsed ? 1 : 0;
  }
  std::printf("retry-storm cells (budget on -> recovery expected):\n");
  for (int i = 0; i < params.seeds; ++i) {
    const fst::ResilienceCellOutcome& o =
        result.outcomes[result.CellIndex(storm, budget, i)];
    std::printf(
        "  seed %-4llu budget=on  pre %7.1f/s post %7.1f/s denied %-6lld %s\n",
        static_cast<unsigned long long>(o.seed), o.pre_storm_rate,
        o.post_storm_rate, static_cast<long long>(o.denied_budget),
        o.collapsed ? "COLLAPSED" : "recovered");
    budget_collapsed += o.collapsed ? 1 : 0;
    budget_viol += o.ok ? 0 : 1;
  }

  std::printf("\ncheckpoint/rollback (digest must match the uncrashed run at "
              "every boundary):\n");
  for (const fst::CheckpointCellOutcome& c : result.checkpoints) {
    std::printf(
        "  %-9s seed %-4llu %s overhead %5.2f%% boundaries %d crashed+ckpt "
        "%6.2fs vs no-ckpt %6.2fs\n",
        c.workload == 0 ? "sort" : "transpose",
        static_cast<unsigned long long>(c.seed), c.ok ? "ok" : "XX",
        c.overhead_pct, c.boundaries_tested, c.crashed_ckpt_s,
        c.crashed_plain_s);
  }

  std::printf("\n%d cells violated invariants\n", result.violations);
  for (const fst::ResilienceCellOutcome& o : result.outcomes) {
    if (o.ok) {
      continue;
    }
    std::printf("\n%s x %s seed %llu:\n",
                fst::ResilienceScenarioName(
                    static_cast<fst::ResilienceScenario>(o.scenario)),
                fst::ResiliencePatternName(
                    static_cast<fst::ResiliencePattern>(o.pattern)),
                static_cast<unsigned long long>(o.seed));
    for (const std::string& v : o.violations) {
      std::printf("  violation: %s\n", v.c_str());
    }
    std::printf("  scenario:\n%s", o.dsl.c_str());
    std::printf("  replay: resilience_campaign replay %s %s %llu '%s'%s\n",
                fst::ResilienceScenarioName(
                    static_cast<fst::ResilienceScenario>(o.scenario)),
                fst::ResiliencePatternName(
                    static_cast<fst::ResiliencePattern>(o.pattern)),
                static_cast<unsigned long long>(o.seed),
                fst::OneLineDsl(o.dsl).c_str(),
                params.control_plane ? " control" : "");
  }
  for (const fst::CheckpointCellOutcome& c : result.checkpoints) {
    for (const std::string& v : c.violations) {
      std::printf("  checkpoint violation: %s\n", v.c_str());
    }
  }

  bool demo_ok = true;
  // Metastable collapse is a threshold phenomenon: a drawn trigger mild
  // enough (low surge, short window) legitimately recovers even with no
  // brake, and that control cell is part of the story. The demonstration
  // requires the *typical* storm to tip the unbraked system — at least
  // three quarters of the budget-off cells — while the braked cells must
  // never collapse, mild or severe.
  const int need = (3 * params.seeds + 3) / 4;
  if (none_collapsed < need) {
    std::printf("DEMO FAILED: only %d/%d budget-off storm cells collapsed "
                "(need %d)\n",
                none_collapsed, params.seeds, need);
    demo_ok = false;
  }
  if (budget_collapsed > 0) {
    std::printf("DEMO FAILED: %d budget-on storm cells collapsed\n",
                budget_collapsed);
    demo_ok = false;
  }
  if (budget_viol > 0) {
    std::printf("DEMO FAILED: %d budget-on storm cells violated invariants\n",
                budget_viol);
    demo_ok = false;
  }
  if (demo_ok) {
    std::printf("metastable demo: %d/%d collapsed without budget, 0 with — "
                "the token bucket is the brake\n",
                none_collapsed, params.seeds);
  }

  if (!out_dir.empty()) {
    const std::string path = out_dir + "/" + params.name + "_scorecard.json";
    if (!fst::WriteTextFile(path, result.ScorecardJson())) {
      std::fprintf(stderr, "failed writing %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return result.violations == 0 && demo_ok ? 0 : 2;
}

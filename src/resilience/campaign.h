// The resilience-pattern ablation campaign.
//
// One grid: scenario class × pattern × seeds, every cell one RunCell
// (src/chaos/cell.h) with retries, recovery and the live plane on, served
// through a seeded chaos schedule of its scenario class. The pattern axis
// is the ablation: each resilience pattern runs with everything else held
// fixed, against the scenario classes the chaos DSL gained for exactly
// this purpose:
//
//   scenarios: clean | gray (sub-threshold stutter) | correlated
//              (shared-fate slowdown domains) | retrystorm (arrival surge
//              + transient fleet slowdown — the metastable trigger)
//   patterns:  none (retry budget OFF, no policies — the naive baseline)
//              budget (token-bucket retry budget only — the control)
//              rejuvenation | eviction | nmr (each on top of budget)
//
// Every cell checks the run invariants and reports the retry-storm
// collapse verdict; `none` cells in the retrystorm class are *expected*
// to collapse — that is the demonstration — while `budget` cells must not.
//
// A second, serial sub-grid proves the checkpoint/rollback pattern:
// sort and transpose runs crashed at every checkpoint boundary, restored,
// and replayed must reproduce the uncrashed run's digest bit-for-bit
// (and checkpointed runs the uncheckpointed digest), with overhead and
// recovery gain reported.
//
// Determinism: outcomes come back in grid order (RunCells) and every
// number is printed with a fixed format, so ScorecardJson() is
// byte-identical at any sweep thread count.
#ifndef SRC_RESILIENCE_CAMPAIGN_H_
#define SRC_RESILIENCE_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/cell.h"
#include "src/chaos/policy.h"
#include "src/chaos/scenario.h"
#include "src/consensus/raft.h"
#include "src/obs/live/live_plane.h"
#include "src/obs/live/scorecard.h"
#include "src/resilience/checkpoint.h"
#include "src/simcore/time.h"

namespace fst {

enum class ResilienceScenario { kClean = 0, kGray, kCorrelated, kRetryStorm };
enum class ResiliencePattern { kNone = 0, kBudget, kRejuvenation, kEviction, kNmr };

inline constexpr int kResilienceScenarios = 4;
inline constexpr int kResiliencePatterns = 5;

const char* ResilienceScenarioName(ResilienceScenario s);
const char* ResiliencePatternName(ResiliencePattern p);

struct ResilienceCampaignParams {
  std::string name = "resilience";
  int nodes = 4;
  int seeds = 8;
  uint64_t first_seed = 1;
  Duration run_for = Duration::Seconds(20.0);
  Duration settle = Duration::Seconds(8.0);
  // 200/s at read_fraction 0.5 with R = 2 is 300 replica-attempts/s against
  // 400/s of fleet capacity — 75% nominal utilization, comfortable until a
  // storm hits and bistable once one does.
  double arrivals_per_sec = 200.0;
  // Write-heavy on purpose: a write admitted on only part of its replica
  // set consumes compute without reaching quorum, and that wasted work is
  // the amplification loop a retry storm sustains itself on.
  double read_fraction = 0.5;
  // Deep admission queues are the other half of the metastable physics: a
  // queue this deep, once pinned full by retry pressure, alone costs more
  // than the SLO deadline — the congested state serves only late answers.
  int max_outstanding_per_node = 64;
  int64_t key_space = 400;
  int replication = 2;
  int write_quorum = 2;
  int threads = 0;  // <= 0 selects FST_SWEEP_THREADS / hardware default
  // Retry shape shared by every cell; the budget flag is the pattern
  // axis's business. No end-to-end deadline: deadline-denied retries
  // would cap the amplification the storm cells exist to demonstrate.
  int retry_max_attempts = 6;
  // Pattern knobs (each cell forces the relevant `enabled`).
  RejuvenationParams rejuvenation;
  EvictionParams eviction;
  NmrParams nmr;
  // Scenario shape knobs (per-class counts are forced per cell).
  RandomScenarioParams scenario;
  LivePlaneParams live;
  ScorecardParams scorecard;
  // Consensus-backed control plane (optional, as in the chaos campaign):
  // pattern actions then commit through the replicated log.
  bool control_plane = false;
  ConsensusParams consensus;
  // -- Checkpoint sub-grid --
  int checkpoint_seeds = 6;
  // enabled / crash_at_boundary are forced per run. A 16 MB image keeps the
  // barrier commit (~0.25s) small against multi-second phases, so the
  // overhead column measures the pattern rather than dominating it.
  CheckpointParams checkpoint = {.image_mb = 16.0};
  SortParams sort;
  // Big enough that a transpose phase dwarfs the checkpoint commit.
  TransposeParams transpose = {.bytes_per_pair = 48 << 20};
};

// A serving cell's outcome: its cell's, plus its grid coordinates.
struct ResilienceCellOutcome : CellOutcome {
  int scenario = 0;  // ResilienceScenario
  int pattern = 0;   // ResiliencePattern
};

struct CheckpointCellOutcome {
  int workload = 0;  // 0 = sort, 1 = transpose
  uint64_t seed = 0;
  bool ok = true;
  std::vector<std::string> violations;
  uint64_t digest_plain = 0;  // no checkpoints, no crash
  uint64_t digest_ckpt = 0;   // checkpoints on, no crash
  double makespan_plain_s = 0.0;
  double makespan_ckpt_s = 0.0;
  double overhead_pct = 0.0;  // checkpointing cost vs plain
  int boundaries_tested = 0;  // crash-at-every-boundary replays verified
  double crashed_ckpt_s = 0.0;   // mean makespan, crashed + rolled back
  double crashed_plain_s = 0.0;  // crashed with no checkpoint (full rerun)
};

struct ResilienceCampaignResult {
  ResilienceCampaignParams params;
  // Grid order: scenario-major, then pattern, then seed.
  std::vector<ResilienceCellOutcome> outcomes;
  std::vector<CheckpointCellOutcome> checkpoints;
  int violations = 0;  // cells with >= 1 violated invariant

  size_t CellIndex(int scenario, int pattern, int seed_ordinal) const;

  // The policy scorecard: per-(scenario, pattern) aggregates — goodput
  // retained vs the same pattern's clean cells, gray exposure, MTTR p50,
  // budget behavior, collapse counts, action counts — plus the checkpoint
  // section. Fixed format, byte-identical at any sweep thread count.
  std::string ScorecardJson() const;
};

// The cell of one (scenario, pattern, seed): the campaign's cluster (live
// plane on, retry budget on unless the pattern is `none`, NMR reads for
// `nmr`), fleet and settle, the seed's schedule of the scenario class, and
// the pattern's engine knobs.
CellSpec ResilienceCellSpec(const ResilienceCampaignParams& params,
                            ResilienceScenario scenario,
                            ResiliencePattern pattern, uint64_t seed);

// Runs one serving cell: RunCell(ResilienceCellSpec(...)) (exposed for
// tests).
ResilienceCellOutcome RunResilienceCell(const ResilienceCampaignParams& params,
                                        ResilienceScenario scenario,
                                        ResiliencePattern pattern,
                                        uint64_t seed);

// Runs one checkpoint cell: baseline, checkpointed, crash-at-every-boundary
// replays, and the uncheckpointed crash (exposed for tests).
CheckpointCellOutcome RunCheckpointCell(const ResilienceCampaignParams& params,
                                        int workload, uint64_t seed);

// The full ablation grid (threaded) plus the checkpoint sub-grid (serial).
ResilienceCampaignResult RunResilienceCampaign(
    const ResilienceCampaignParams& params);

}  // namespace fst

#endif  // SRC_RESILIENCE_CAMPAIGN_H_

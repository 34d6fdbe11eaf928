// The chaos-campaign engine: many seeded scenarios, invariant-checked.
//
// A campaign runs N independent seeds, each one cell (src/chaos/cell.h):
// a fresh Simulator + KvService (recovery + retries enabled) serves an
// open-loop workload through the seed's own RandomScenario, quiesces, and
// is checked against the run invariants — durability (no acknowledged
// write lost), repair (the replication factor restored) and convergence
// (every node back up, unejected and at weight 1.0), plus detection
// quality and the consensus invariants in the telemetry and control-plane
// modes. Outcomes come back in seed order (RunCells), so the campaign
// report is byte-identical at any sweep thread count, and a violating seed
// replays exactly from the campaign params, its seed and its recorded
// scenario DSL (in the report next to the injected-fault timeline):
// `chaos_campaign replay`.
#ifndef SRC_CHAOS_CAMPAIGN_H_
#define SRC_CHAOS_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/cell.h"
#include "src/chaos/scenario.h"
#include "src/consensus/raft.h"
#include "src/obs/live/live_plane.h"
#include "src/obs/live/scorecard.h"
#include "src/simcore/time.h"

namespace fst {

struct CampaignParams {
  std::string name = "chaos";
  int nodes = 4;
  int seeds = 50;
  uint64_t first_seed = 1;
  // Serving window (arrivals) and the settle window after arrivals stop in
  // which heartbeats, weight ramps, and repair run to convergence. Settle
  // must exceed the recovery ramp plus worst-case repair time.
  Duration run_for = Duration::Seconds(20.0);
  Duration settle = Duration::Seconds(8.0);
  double arrivals_per_sec = 300.0;
  double read_fraction = 0.7;
  int64_t key_space = 400;
  int replication = 2;
  int write_quorum = 2;  // R=2/quorum=2: every ack has two copies on disk
  RandomScenarioParams scenario;  // nodes/horizon overwritten per run
  int threads = 0;  // <= 0 selects FST_SWEEP_THREADS / hardware default
  // Online telemetry: each seed runs with the KvService live plane armed
  // and an event recorder attached; the injector's ground truth, the
  // correlator's timeline, and the live plane's gray spans join into a
  // per-seed detector scorecard (merged across seeds in grid order), and
  // two detection-quality invariants are checked on top of the robustness
  // ones. Off by default: zero extra allocations, ticks, or events.
  bool telemetry = false;
  LivePlaneParams live;         // live.enabled is implied by `telemetry`
  ScorecardParams scorecard;
  // Consensus-backed control plane: each seed additionally builds a
  // metadata quorum, routes every eject / uneject / weight mutation
  // through its committed log (BindControlPlane), appends `leader_faults`
  // leader-targeted chaos events to the schedule, and checks the consensus
  // invariants (one leader per term, no committed-entry truncation,
  // replica-state agreement, leaderless spans <= unavailability_bound) on
  // top of the robustness ones. Off by default: the omniscient legacy
  // path, bit-identical to the seed digests.
  bool control_plane = false;
  ConsensusParams consensus;   // data_nodes/shard overwritten per run
  int leader_faults = 2;
  Duration unavailability_bound = Duration::Seconds(3.0);
};

// A chaos seed's outcome is its cell's.
using SeedOutcome = CellOutcome;

struct CampaignResult {
  CampaignParams params;
  std::vector<SeedOutcome> outcomes;  // ordered by seed
  int violations = 0;                 // seeds with >= 1 violated invariant
  // Merged across seeds in grid order (telemetry campaigns only).
  DetectorScorecard scorecard;

  // Fixed-format JSON, byte-identical across thread counts. Violating
  // seeds carry their scenario DSL and fault timeline inline.
  std::string ReportJson() const;

  // The exemplar seed whose live series the bundle embeds: the first seed
  // with a gray span, else the first violating seed, else the first seed.
  // -1 when there are no outcomes or telemetry was off.
  int ExemplarIndex() const;

  // Unified campaign bundle: campaign summary + merged scorecard +
  // per-seed scorecard rows + the exemplar seed's live series and SLO
  // report, one schema-stamped JSON object. Pure function of the
  // grid-ordered outcomes — byte-identical at any sweep thread count.
  std::string UnifiedBundleJson() const;

  // Writes <dir>/<name>_bundle.json and <dir>/<name>_report.html (the
  // self-contained HTML view over the same bundle). False on I/O error.
  bool WriteBundle(const std::string& dir) const;
};

// The cell of one seed: the campaign's cluster, fleet and settle, the
// seed's RandomScenario (plus `leader_faults` on the control plane), the
// live plane when `telemetry`, and no resilience pattern.
CellSpec ChaosCellSpec(const CampaignParams& params, uint64_t seed);

// Runs one seed end to end: RunCell(ChaosCellSpec(params, seed)), keeping
// the live series when `telemetry` (exposed for tests and the closed-form
// checks).
SeedOutcome RunChaosSeed(const CampaignParams& params, uint64_t seed);

// Runs the full campaign across the sweep harness.
CampaignResult RunCampaign(const CampaignParams& params);

}  // namespace fst

#endif  // SRC_CHAOS_CAMPAIGN_H_

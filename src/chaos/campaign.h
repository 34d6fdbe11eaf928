// The chaos-campaign engine: many seeded scenarios, invariant-checked.
//
// A campaign runs N independent seeds through the sweep harness. Each seed
// builds a fresh Simulator + KvService (recovery + retries enabled),
// generates its own RandomScenario, serves an open-loop workload through
// the full fault schedule, lets the cluster quiesce, and then checks the
// robustness invariants:
//   1. durability  — no acknowledged write lost (some live node holds a
//      version >= the acked one for every acked key);
//   2. repair      — the replication factor is restored (no acked key is
//      under-replicated across its current owner set);
//   3. convergence — every node is back up, none is still marked kFailed,
//      crash-ejected nodes have been unejected, and fully-recovered nodes
//      carry weight 1.0 again.
// Determinism is inherited from the harness: results are aggregated by
// grid index, so the campaign report is byte-identical at any sweep thread
// count, and a violating seed can be replayed exactly from its recorded
// scenario DSL (included in the report next to the injected-fault
// timeline).
#ifndef SRC_CHAOS_CAMPAIGN_H_
#define SRC_CHAOS_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/scenario.h"
#include "src/cluster/cluster.h"
#include "src/consensus/raft.h"
#include "src/obs/correlator.h"
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

struct SeedOutcome {
  uint64_t seed = 0;
  bool ok = true;
  std::vector<std::string> violations;
  std::string dsl;  // the scenario script (replay: ParseDsl + ApplySchedule)
  // Injected-fault ground truth ("<t>s <component> <kind>"), the fault
  // timeline a violation is debugged against.
  std::vector<std::string> fault_timeline;
  uint64_t fire_digest = 0;
  double goodput_per_sec = 0.0;
  int crashes = 0;
  int recoveries = 0;
  int64_t keys_repaired = 0;
  int64_t read_misses = 0;
  int64_t retries = 0;
  int64_t acked_keys = 0;
  int64_t lost_acked = 0;
  int64_t under_replicated = 0;

  // -- Telemetry-enabled campaigns only (params.telemetry) --
  bool telemetry = false;   // the fields below are populated
  DetectorScorecard scorecard;
  int gray_spans = 0;       // live-plane stutter intervals on this seed
  int burn_raised = 0;      // SLO burn alerts raised / cleared
  int burn_cleared = 0;
  double max_stutter_score = 0.0;  // highest window score on any node
  std::string live_json;    // LivePlane::Json() for this seed
  std::string slo_json;     // SloTracker::ReportJson(run_for)

  // -- Control-plane campaigns only (params.control_plane) --
  bool control_plane = false;  // the fields below are populated
  int elections = 0;           // election attempts across the run
  int elections_won = 0;
  int false_failovers = 0;     // elections while the old leader was up
  int64_t entries_committed = 0;
  int snapshots = 0;           // taken + installed across the quorum
  int reconfigs = 0;           // config changes applied by the feed
  double reconfig_mean_ms = 0.0;  // propose -> feed-applied latency
  double reconfig_max_ms = 0.0;
  double leaderless_s = 0.0;      // total time without a live leader
  double max_leaderless_s = 0.0;  // worst single outage window
};

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

// Runs one seed end to end (exposed for tests and the closed-form checks).
SeedOutcome RunChaosSeed(const CampaignParams& params, uint64_t seed);

// The invariants every campaign run (chaos seed or resilience cell) checks
// once it has quiesced, appended to `violations` in this order:
//   1. detection quality, when `report` and `scorecard` are given: the
//      scorecard's counts are consistent, and every crash was detected;
//   2. control plane, when `group` is given: the consensus invariants with
//      `unavailability_bound`, no split-brain ownership (the serving map
//      and weights equal the feed replica's applied state), and no
//      proposal left uncommitted;
//   3. durability, repair and convergence, always: no acked write lost
//      (`lost_acked`, svc.lost_acked_writes()), replication restored
//      (`under_replicated`, svc.under_replicated_keys()), every node up,
//      none stuck kFailed or ejected without cause, healthy nodes back at
//      weight 1.0.
void CheckRunInvariants(KvService& svc, int64_t lost_acked,
                        int64_t under_replicated,
                        const CorrelationReport* report,
                        const DetectorScorecard* scorecard,
                        const ConsensusGroup* group,
                        Duration unavailability_bound,
                        std::vector<std::string>& violations);

// Runs the full campaign across the sweep harness.
CampaignResult RunCampaign(const CampaignParams& params);

}  // namespace fst

#endif  // SRC_CHAOS_CAMPAIGN_H_

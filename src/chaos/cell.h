// One campaign cell: a seeded serving cluster driven through a chaos
// schedule, run to quiescence and checked against the run invariants.
// Both campaigns (src/chaos/campaign.h, src/resilience/campaign.h) only
// turn their params into a CellSpec and call RunCell, the one function
// that builds a cell. A cell is a pure function of its spec, so the spec a
// campaign derives from (params, seed), with the schedule parsed back from
// the outcome's DSL, replays it exactly: same fire digest, outcome digest
// and violations.
//
// The construction order is fixed: components fork their RNG streams off
// the simulator root when constructed, and events take their sequence
// numbers (the tie-break at equal times) when scheduled:
//   1. the schedule's surge windows (the schedule drew only from its own
//      salted seed, never the simulator's);
//   2. the fleet, given those surges;
//   3. the event recorder, only when the live plane is on;
//   4. KvService, then the consensus group when there is one;
//   5. the fault injector and ApplySchedule, with a leader resolver only
//      when there is a group;
//   6. the ResilienceEngine (disabled patterns schedule nothing), then the
//      retry-storm probes, only when the schedule has surges;
//   7. StartRecovery, StartTelemetry, the engine's Start, the group's Start;
//   8. fleet.Run, then sim.Run.
#ifndef SRC_CHAOS_CELL_H_
#define SRC_CHAOS_CELL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/chaos/policy.h"
#include "src/chaos/scenario.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/arrivals.h"
#include "src/consensus/raft.h"
#include "src/obs/live/scorecard.h"
#include "src/simcore/time.h"

namespace fst {

struct CellSpec {
  uint64_t seed = 1;
  ClusterParams cluster;  // live.enabled arms the live plane and recorder
  // fleet.run_for is the serving window; the surges are the schedule's.
  FleetParams fleet;
  // A consensus-backed control plane; data_nodes and shard follow
  // `cluster`.
  std::optional<ConsensusParams> consensus;
  ChaosSchedule schedule;
  Duration settle = Duration::Seconds(8.0);  // after arrivals stop
  ScorecardParams scorecard;                 // live plane only
  Duration unavailability_bound = Duration::Seconds(3.0);  // control plane
  RejuvenationParams rejuvenation;
  EvictionParams eviction;
};

struct CellOutcome {
  uint64_t seed = 0;
  bool ok = true;
  std::vector<std::string> violations;
  std::string dsl;  // the schedule (replay: ParseDsl)
  // Injected-fault ground truth ("<t>s <component> <kind> x<magnitude>"),
  // the fault timeline a violation is debugged against.
  std::vector<std::string> fault_timeline;
  uint64_t fire_digest = 0;
  uint64_t outcome_digest = 0;  // KvService::outcome_digest()
  double goodput_per_sec = 0.0;
  int64_t arrivals = 0;  // ops the fleet issued
  int64_t retries = 0;
  int64_t denied_budget = 0;
  double retry_tokens = 0.0;
  int crashes = 0;
  int recoveries = 0;
  int64_t keys_repaired = 0;
  int64_t read_misses = 0;
  int64_t acked_keys = 0;
  int64_t lost_acked = 0;
  int64_t under_replicated = 0;
  // Pattern actions.
  int rejuvenations = 0;
  int evictions = 0;
  int restores = 0;
  int64_t nmr_reads = 0;
  int64_t nmr_acks = 0;
  // Retry-storm verdict (cells whose schedule has a storm): goodput rate in
  // a window just before the first trigger vs the final 3s of the run.
  bool storm = false;
  double pre_storm_rate = 0.0;
  double post_storm_rate = 0.0;
  bool collapsed = false;  // post < 0.5 * pre: metastable collapse

  // -- Live plane on (cluster.live.enabled) --
  bool telemetry = false;  // the fields below are populated
  DetectorScorecard scorecard;  // MTTR/MTTD vs injected ground truth
  int gray_spans = 0;           // live-plane stutter intervals
  double gray_exposure_s = 0.0;  // their summed length
  int burn_raised = 0;          // SLO burn alerts raised / cleared
  int burn_cleared = 0;
  double max_stutter_score = 0.0;  // highest window score on any node
  // Only when RunCell is asked to keep the live series (~128 KB a cell):
  std::string live_json;  // LivePlane::Json()
  std::string slo_json;   // SloTracker::ReportJson(run_for)

  // -- Control plane (spec.consensus) --
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

// Builds and runs one cell, then checks the invariants below in this
// order, appending to `violations`:
//   1. detection quality, with the live plane on: the scorecard's counts
//      are consistent, and every crash was detected;
//   2. control plane, with a group: the consensus invariants within
//      `unavailability_bound`, no split-brain ownership (the serving map
//      and weights equal the feed replica's applied state), and no
//      proposal left uncommitted;
//   3. durability, repair and convergence, always: no acked write lost,
//      replication restored, every node up, none stuck kFailed or ejected
//      without cause, healthy nodes back at weight 1.0.
// `keep_live_series` also fills live_json and slo_json. Throws
// std::invalid_argument, before building anything, for a negative settle
// or a schedule event that ends (EventEndNs) after run_for + settle, and
// for invalid cluster, consensus or pattern params.
CellOutcome RunCell(const CellSpec& spec, bool keep_live_series = false);

// Runs every spec on `threads` workers (<= 0: FST_SWEEP_THREADS or the
// hardware default) and returns the outcomes in spec order, so a campaign
// report is byte-identical at any thread count.
std::vector<CellOutcome> RunCells(const std::vector<CellSpec>& specs,
                                  int threads, bool keep_live_series = false);

// What a CLI's `replay` mode prints for a cell: its digests, each
// violation, and the schedule as one line of DSL.
std::string ReplayReport(const CellOutcome& out);

// A ToDsl script on one line, statements joined by "; " (ParseDsl reads
// both separators), to quote as a shell argument to a `replay` mode.
std::string OneLineDsl(const std::string& dsl);

}  // namespace fst

#endif  // SRC_CHAOS_CELL_H_

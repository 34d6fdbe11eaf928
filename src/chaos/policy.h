// Resilience-pattern policy engine (Hukerikar/Engelmann pattern language).
//
// The detectors (src/core), the live telemetry plane (src/obs/live), and
// the liveness machinery (src/cluster recovery) tell us a component is
// performance-faulty; this module encodes what to *do* about it as
// deterministic, composable policy objects. Two serving-side patterns run
// here (the batch-side checkpoint/rollback pattern lives in
// src/resilience/checkpoint.h, and n-modular redundancy is a KvService
// read mode — NmrParams):
//
//   * Rejuvenation — periodic proactive restart of the most-suspect node.
//     The engine picks the node with the highest live stutter score (>=
//     min_score) and routes the restart through the fault injector's
//     crash-restart lifecycle, so ground truth records it, the liveness
//     detector ejects it, repair restores its keys, and the weight ramp
//     readmits it — the identical path an organic crash takes. Restarts
//     are *staggered*: one node at a time, and only when every node is up,
//     unejected, and at full weight, so quorum and ownership invariants
//     hold by construction.
//
//   * Prediction-based eviction — act on ExpectationTracker gray-span
//     scores *before* the hysteresis detectors' 1.5 enter_deficit ever
//     trips. A node scoring >= evict_score for evict_windows consecutive
//     ticks has its selector weight stepped down to evict_weight (via the
//     control seam, consensus-committed when a control plane is bound);
//     scores back under clear_score for clear_windows ticks restore 1.0.
//     At the quiesce instant any weight the policy still holds down is
//     restored, so the end-of-run convergence invariants stay meaningful.
//
// Determinism: the engine draws no RNG, ticks at fixed offsets chosen to
// land *after* the service's own telemetry ticks (so each decision reads
// freshly closed windows), and is entirely opt-in — both patterns default
// off, and a disabled engine schedules nothing.
#ifndef SRC_CHAOS_POLICY_H_
#define SRC_CHAOS_POLICY_H_

#include <vector>

#include "src/cluster/cluster.h"
#include "src/faults/injector.h"
#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {

struct RejuvenationParams {
  bool enabled = false;
  // Proactive-restart cadence. Each period the engine restarts at most one
  // node (the most suspect); periods where the stagger gate fails count as
  // skipped, not deferred.
  Duration period = Duration::Seconds(5.0);
  // Simulated restart outage. Longer than the liveness timeout (1s
  // default) so the restart exercises the full detect/eject/repair/rejoin
  // lifecycle instead of hiding inside the heartbeat blind spot.
  Duration down_for = Duration::Seconds(1.5);
  // Only nodes scoring at least this are candidates; 1.0 means "restart
  // somebody every period" (pure time-based rejuvenation). The default
  // sits above the tracker's ambient noise on a healthy fleet but below
  // the gray band (1.25+), so a clean cluster is never churned.
  double min_score = 1.15;
};

struct EvictionParams {
  bool enabled = false;
  // Evict when the live stutter score holds >= evict_score for
  // evict_windows consecutive ticks. The default threshold equals the
  // ExpectationTracker's score_threshold (1.2) — i.e. act the moment the
  // live plane opens a gray span, well under the detectors' 1.5.
  double evict_score = 1.2;
  int evict_windows = 2;
  // Weight the suspect is stepped down to (0 would be a full eject; a
  // trickle keeps probing the node so recovery is observable).
  double evict_weight = 0.10;
  // Restore full weight when the score holds < clear_score for
  // clear_windows ticks. Hysteresis: clear_score < evict_score.
  double clear_score = 1.08;
  int clear_windows = 2;
};

struct ResilienceStats {
  int rejuvenations = 0;          // proactive restarts issued
  int rejuvenations_skipped = 0;  // periods the stagger gate refused
  int evictions = 0;              // predictive weight-downs issued
  int restores = 0;               // score-cleared weight restores
  int quiesce_restores = 0;       // weights restored at the quiesce pass
};

class ResilienceEngine {
 public:
  // The service must have its live plane enabled when either pattern is —
  // both decide off live stutter scores. Rejuvenation additionally routes
  // restarts through `injector` so they appear in ground truth. Throws
  // std::invalid_argument without the live plane, for an enabled
  // rejuvenation with period <= 0, and for an enabled eviction with
  // clear_score > evict_score (an inverted hysteresis).
  ResilienceEngine(Simulator& sim, KvService& service, FaultInjector& injector,
                   RejuvenationParams rejuvenation, EvictionParams eviction);

  // Arms the policy ticks until `until` and schedules the quiesce pass at
  // `until` (restoring policy-held weights through the control seam while
  // the control plane, if any, is still committing). No-op when both
  // patterns are disabled.
  void Start(SimTime until);

  const ResilienceStats& stats() const { return stats_; }

 private:
  void RejuvenationTick(SimTime until);
  void EvictionTick(SimTime until);
  void Quiesce();

  Simulator& sim_;
  KvService& service_;
  FaultInjector& injector_;
  RejuvenationParams rejuvenation_;
  EvictionParams eviction_;
  ResilienceStats stats_;

  // Per-node eviction hysteresis state.
  std::vector<int> above_count_;
  std::vector<int> clear_count_;
  std::vector<bool> evicted_;
};

}  // namespace fst

#endif  // SRC_CHAOS_POLICY_H_

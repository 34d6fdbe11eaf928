// The sharded, replicated, fail-stutter-aware serving layer.
//
// KvService composes the repo's existing building blocks into an
// end-to-end service of the kind the ROADMAP's north star asks for and the
// paper's Section 2.2.1 anecdote (Gribble's DDS) warns about: N compute
// Nodes behind a Switch, a consistent-hash ShardMap placing every key on R
// replicas, a ReplicaSelector routing reads with however much performance
// information the configured design consumes, an AdmissionController
// bounding per-node queues and shedding overload, and an SloTracker
// splitting acks into goodput and late.
//
// The fail-stutter runtime closes the loop: every completed request feeds
// the PerformanceStateRegistry, whose hysteresis detectors publish state
// transitions; the configured ReactionPolicy maps each transition to a
// reaction that the service applies structurally —
//   kReweight -> the selector's per-node weight becomes the policy share;
//   kEject    -> weight drops to zero AND the ShardMap rebalances the
//                node's key ranges to its ring successors;
//   recovery  -> weight restored (and ring ownership on un-eject).
//
// Detection under load: a saturated-but-healthy node has high latency
// purely from queueing, so observations charge the expected time for the
// whole admitted backlog (units = work x outstanding-at-admit). A node is
// only declared stuttering when it is slow *for its queue depth* — the
// per-component deficit the detectors are designed around — not merely
// popular.
#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cluster/admission.h"
#include "src/cluster/control.h"
#include "src/cluster/fleet/completion.h"
#include "src/cluster/fleet/op_table.h"
#include "src/cluster/retry.h"
#include "src/cluster/selector.h"
#include "src/cluster/shard_map.h"
#include "src/cluster/slo.h"
#include "src/core/policy.h"
#include "src/core/registry.h"
#include "src/devices/hedge.h"
#include "src/devices/network.h"
#include "src/devices/node.h"
#include "src/obs/live/live_plane.h"
#include "src/obs/recorder.h"
#include "src/simcore/simulator.h"

namespace fst {

// Crash-recovery lifecycle knobs. Everything here is opt-in: with
// `enabled == false` (the default) KvService schedules no heartbeats, no
// repair, no ramps, and forks no extra RNG streams, so pre-existing runs
// stay bit-identical.
struct RecoveryParams {
  bool enabled = false;
  // Management-plane liveness probing. Each tick probes every node with a
  // tiny compute; a successful probe is a liveness proof, and any node
  // silent past `liveness_timeout` is declared crashed (kFailed -> eject).
  Duration heartbeat_every = Duration::Millis(250);
  Duration liveness_timeout = Duration::Seconds(1.0);
  double heartbeat_work = 100.0;
  // Anti-entropy repair: re-replicates acked keys whose current owner set
  // is missing copies, one key per 1/repair_keys_per_sec, each copy costing
  // write_work * repair_work_factor on the target. 0 turns repair off.
  double repair_keys_per_sec = 400.0;
  double repair_work_factor = 1.0;
  // Recovered nodes rejoin at `ramp_initial` selector weight and climb to
  // 1.0 in `ramp_steps` equal steps over `ramp_duration` (a warm-cache /
  // warm-JIT model: don't hand a cold node its full share at once).
  Duration ramp_duration = Duration::Seconds(2.0);
  int ramp_steps = 4;
  double ramp_initial = 0.25;
};

// N-modular-redundancy read issue: designated read classes are issued to
// `issue` replicas at once and complete at the `quorum`-th agreeing
// success — the classic NMR pattern applied to reads, trading replica work
// for immunity to a single stuttering or failed replica. It is one setting
// of the service's fan-out spec (KvService::StartAttempt). Default-off:
// the read path is untouched and historical digests unchanged.
struct NmrParams {
  bool enabled = false;
  // Replicas to issue to (the first `issue` admissible ones in rank order).
  int issue = 2;
  // Agreeing successes required before the op acks (clamped to the
  // replicas actually issued).
  int quorum = 1;
  // A read is designated for NMR when key % key_stride == 0; stride 1
  // applies it to every read.
  uint64_t key_stride = 4;
};

struct ClusterParams {
  int nodes = 4;
  ShardMapParams shard;           // replication + virtual nodes
  NodeParams node;                // per-replica compute model
  SwitchParams net;               // ports forced up to nodes + 1
  AdmissionParams admission;
  DetectorParams detector;
  double read_work = 10000.0;     // CPU work units per get, per replica
  double write_work = 10000.0;    // per put, per replica
  int64_t request_bytes = 256;
  int64_t response_bytes = 256;
  int write_quorum = 1;           // acks required before a put reports
  RouteMode route = RouteMode::kQueueWeighted;
  bool hedge_reads = false;
  HedgeParams hedge;
  double spec_tolerance = 0.25;   // tolerance band on the per-node rate spec
  Duration slo_deadline = Duration::Millis(300);
  // Data-plane bookkeeping: per-node stores plus the acked-write ledger the
  // loss/replication invariants are checked against. Implied by
  // recovery.enabled; settable alone for "ignore the crash" baselines that
  // still need the invariants probed.
  bool track_data = false;
  RetryParams retry;
  RecoveryParams recovery;
  NmrParams nmr;
  // Online telemetry plane (expectation tracking + SLO burn alerting).
  // Disabled by default: no plane is allocated, the hot path sees one
  // null-pointer test, and no telemetry ticks are scheduled.
  LivePlaneParams live;
};

class KvService {
 public:
  // Throws std::invalid_argument unless `params` describes a cluster the
  // service can run: nodes >= 1, shard.replication in [1, nodes],
  // write_quorum in [1, replication], admission.max_outstanding_per_node
  // >= 1, finite read_work and write_work > 0, request_bytes and
  // response_bytes >= 0; its Switch and Nodes reject their own bad knobs
  // (network.h, node.h). With hedge_reads on, hedge.max_hedges >= 0 and
  // hedge.hedge_delay >= 0; with NMR on, nmr.quorum in [1, nmr.issue] and
  // nmr.key_stride >= 1; with the live plane on, a positive live.window.
  // With recovery on, heartbeat_every and liveness_timeout must be
  // positive and repair_keys_per_sec must be 0 (off) or a finite rate
  // whose interval 1/rate is at least 1 ns and fits a Duration.
  KvService(Simulator& sim, ClusterParams params,
            std::unique_ptr<ReactionPolicy> policy,
            EventRecorder* recorder = nullptr);

  // The op entry points. A read routes to one replica chosen by the
  // selector (optionally hedged, or NMR fanned out); a request that no
  // admissible replica can accept is shed. A write fans out to every
  // replica of the key and succeeds at the write_quorum-th success (or
  // fails once no quorum is reachable). Either way the op's SLO outcome is
  // recorded the instant it terminates, and {tag, outcome} is appended to
  // the completion ring (`tag` is caller context such as a client id) —
  // zero per-op allocation end to end, hedged reads included.
  void GetTagged(uint64_t key, uint64_t tag);
  void PutTagged(uint64_t key, uint64_t tag);

  // Pure prefetch: warms the shard-route lookup for `key` so an issue
  // loop that knows its next key hides the miss behind the current op.
  void PrefetchRoute(uint64_t key) const {
    shard_map_.PrefetchSegmentOf(key);
  }

  // Hands the caller every completion record appended since the previous
  // drain, in FIFO (= completion) order. The returned reference is valid
  // until the next drain; the two backing buffers ping-pong without
  // reallocating.
  const std::vector<CompletionRecord>& DrainCompletions();
  // Terminated ops whose record has not been drained yet.
  size_t pending_completions() const { return completions_.size(); }
  // In-flight logical ops (arrived, not yet terminal).
  size_t in_flight_ops() const { return ops_.live(); }
  // One-shot: runs `idle` as the last step of the completion that leaves
  // no op in flight, in that completion's event, or at once if none is in
  // flight. A later call replaces a callback that has not run yet.
  void WhenIdle(std::function<void()> idle);

  // Arms the crash-recovery control loop (requires recovery.enabled):
  // heartbeat ticks run until `until`, each one probing liveness, declaring
  // timed-out nodes crashed, recovering restarted ones, and kicking the
  // anti-entropy repair chain. The horizon is explicit so a run's event
  // queue drains once serving stops.
  void StartRecovery(SimTime until);

  // Arms the telemetry tick (requires live.enabled): every live.window the
  // service closes expectation windows and feeds the burn alerter one
  // cumulative SLO snapshot, until `until`. Like StartRecovery, the
  // horizon is explicit so the event queue drains once serving stops.
  void StartTelemetry(SimTime until);

  Node* node(int i) { return nodes_[static_cast<size_t>(i)].get(); }
  Switch& network() { return *switch_; }
  ShardMap& shard_map() { return shard_map_; }
  ReplicaSelector& selector() { return selector_; }
  AdmissionController& admission() { return admission_; }
  PerformanceStateRegistry& registry() { return registry_; }
  SloTracker& slo() { return slo_; }
  // Null when the live plane is disabled.
  LivePlane* live() { return live_.get(); }
  const LivePlane* live() const { return live_.get(); }
  // Hedged reads: attempts issued hedged, launches after the first (timer
  // or failover), successes by a launch after the first, and answers that
  // arrived after their op succeeded.
  const HedgeStats& hedge_stats() const { return hedge_stats_; }
  const ClusterParams& params() const { return params_; }

  // -- Control-plane seam (src/cluster/control.h) --
  //
  // With no route installed (the default), SubmitControl applies changes
  // inline — byte-identical to the historical direct-mutation path. A
  // route (e.g. BindControlPlane in src/consensus) returns true to claim
  // the change; the serving state then mutates only when the committed
  // change is applied back via ApplyControl, paying whatever latency the
  // external control plane imposes.
  using ControlRoute = std::function<bool(const ConfigChange&)>;
  void set_control_route(ControlRoute route) {
    control_route_ = std::move(route);
  }
  // Applies a change to the serving shard map / selector; ignores kNoop.
  // Public so a replicated control plane can apply committed entries;
  // idempotent.
  void ApplyControl(const ConfigChange& change);

  // Routes a change through control_route_ when installed, else applies
  // it inline (the legacy omniscient path). Public so resilience policies
  // (src/chaos/policy.h) issue their actions through the same seam the
  // reaction policy uses — consensus-committed when a route is bound.
  void SubmitControl(const ConfigChange& change);

  int ejections() const { return ejections_; }
  int reweights() const { return reweights_; }
  int64_t reads() const { return reads_; }
  int64_t writes() const { return writes_; }
  int64_t sheds() const { return sheds_; }
  // FNV-1a fold over every terminated op's (key, issue time, completion
  // time, outcome, attempts, answering node or -1), in completion order:
  // the op-level behaviour contract. It ignores how many events the
  // service schedules, so a change that re-pins fire_digest must leave it
  // unchanged.
  uint64_t outcome_digest() const { return outcome_digest_; }

  // SloTracker::Snapshot plus the retry policy's token-bucket state —
  // the view campaign scorecards read.
  SloSnapshot SloWithRetry() const {
    SloSnapshot s = slo_.Snapshot();
    const RetrySnapshot r = retry_.Snapshot();
    s.retry_tokens = r.tokens;
    s.retry_denied_budget = r.denied_budget;
    return s;
  }

  // -- NMR observability --
  // Attempts fanned out NMR-style (at least one replica admitted), and NMR
  // reads that reached their quorum.
  int64_t nmr_reads() const { return nmr_reads_; }
  int64_t nmr_acks() const { return nmr_acks_; }

  // -- Crash-recovery observability and invariant probes --
  const RetryPolicy& retry() const { return retry_; }
  int crashes() const { return crashes_; }
  int recoveries() const { return recoveries_; }
  int64_t keys_repaired() const { return keys_repaired_; }
  int64_t read_misses() const { return read_misses_; }
  int64_t acked_keys() const {
    return static_cast<int64_t>(acked_.size());
  }
  // Acked keys for which no live node holds a version at least as new as
  // the acked one: the durability invariant ("no acked write lost") counts
  // this at end of run and demands zero.
  int64_t lost_acked_writes() const;
  // Acked keys whose current replica set holds fewer copies than it should:
  // post-repair this must be zero (replication factor restored).
  int64_t under_replicated_keys() const;

 private:
  // Request kinds for the enum-dispatched answer path.
  enum : uint8_t { kCtxRead = 0, kCtxWrite = 1, kCtxRepair = 2 };

  // Everything one replica request's answer needs, carried by value
  // through the dispatch chain (request -> compute -> response). A POD
  // small enough that the whole chain stays inside InlineFunction's buffer:
  // no per-request heap allocation, and late answers act purely on these
  // captured values plus a generation-checked op-table lookup.
  struct AttemptCtx {
    OpTable::Id op_id = 0;   // 0 for repair (no logical op)
    uint64_t key = 0;
    uint64_t version = 0;    // writes/repair: version being installed
    SimTime t0;              // attempt start: the detectors' latency origin
    int32_t attempt_no = 0;  // which of the op's attempts this belongs to
    int32_t node = 0;
    uint8_t kind = kCtxRead;
    uint8_t secondary = 0;   // a hedged read's launch after the first
    uint8_t hedged = 0;      // launched by a hedged read
  };

  // Arrival bookkeeping shared by GetTagged/PutTagged: counters, SLO
  // arrival, retry token, trace span, and a freshly allocated op row.
  OpTable::Id BeginOp(uint64_t key, bool is_read, uint64_t tag);

  // Logical-op completion, the only place an op terminates: SLO
  // accounting, outcome-digest fold, slot free, ring append, the staged
  // trace row, and, when it empties the op table, the WhenIdle callback.
  // `id` must be live. `node` is the replica whose answer completed the
  // op, or -1 for a shed or failed op.
  void FinishOp(OpTable::Id id, int node);

  // One admitted request against ctx.node: request over the switch,
  // compute, response back, then registry observation + admission release,
  // ending in OnAttemptComplete(ctx, ...). Every read, write and repair
  // request goes through here; the whole chain lives in InlineFunction
  // buffers.
  void Dispatch(double work, const AttemptCtx& ctx);

  // Enum-dispatched answer: the side effects every answer owes (read miss
  // check, write store install and mirror gauge, repair install), then
  // Tally for the live op's current attempt. Stale answers stop before
  // Tally; a hedged one counts as wasted.
  void OnAttemptComplete(const AttemptCtx& ctx, bool ok);

  // The attempt engine. Each attempt of an op is one fan-out spec: its
  // candidate replicas, how many to issue now, how many more may launch
  // later, and the quorum q of successful answers that completes the op.
  //
  //   op          candidates           issue now          later      q
  //   plain read  ranked replicas      first admissible   none       1
  //   NMR read    ranked replicas      first nmr.issue    none       nmr.quorum
  //                                    admissible                    (<= issued)
  //   hedged read first 1+max_hedges   one                one per    1
  //               ranked               hedge_delay, or at once after
  //                                    a failed answer
  //   write       ring order           every admissible   none       write_quorum
  //                                                                  (<= replicas)
  //
  // NMR applies to keys with key % nmr.key_stride == 0 (checked before
  // hedging); hedging to the other reads once two replicas rank. The
  // attempt fails when every launch has answered and q was not reached
  // (or nothing could be admitted); RetryPolicy then backs off and
  // re-enters StartAttempt, or the op terminates.
  void StartAttempt(OpTable::Id id);
  // One hedged launch, the op's next candidate: arms the following launch
  // first, then admits and dispatches (a launch that cannot be admitted is
  // a failed answer).
  void Launch(OpTable::Id id, SimTime t0);
  // Counts one answer of the live op's current attempt: completes the op
  // at q successes, else fails over to the next hedged candidate, else
  // fails the attempt once every launch has answered.
  void Tally(const AttemptCtx& ctx, bool ok);
  void AttemptFailed(OpTable::Id id);

  bool IsNmrRead(uint64_t key) const {
    return params_.nmr.enabled && key % params_.nmr.key_stride == 0;
  }
  // Installs ctx.version on a live ctx.node; false if the node is down (a
  // completion racing a crash must not resurrect data the crash wiped).
  bool StoreVersion(const AttemptCtx& ctx);

  // Data plane (active when track_data or recovery.enabled): a read attempt
  // at `node` misses when the key is acked but absent from the node's
  // store — the attempt fails over without blaming the node's health.
  bool data_plane() const {
    return params_.track_data || params_.recovery.enabled;
  }
  bool IsMiss(int node, uint64_t key) const;

  // Crash-recovery lifecycle.
  void ArmCrashHandler(int node);
  void OnNodeCrash(int node);
  void RecoverNode(int node);
  void BeginWeightRamp(int node);
  void HeartbeatTick();
  void KickRepair();
  void RepairStep();

  void OnStateChange(const StateChange& change);

  void TelemetryTick();

  uint64_t BeginTrace(SimTime now);

  Simulator& sim_;
  ClusterParams params_;
  EventRecorder* recorder_;
  uint16_t trace_comp_ = 0;

  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<Switch> switch_;
  ShardMap shard_map_;
  ReplicaSelector selector_;
  AdmissionController admission_;
  PerformanceStateRegistry registry_;
  std::unique_ptr<ReactionPolicy> policy_;
  HedgeStats hedge_stats_;
  SloTracker slo_;
  std::unique_ptr<LivePlane> live_;  // null unless params.live.enabled
  SimTime telemetry_until_;
  RetryPolicy retry_;
  std::map<std::string, int> name_to_index_;
  ControlRoute control_route_;

  // Columnar op core: slab table of in-flight ops (with a candidate row as
  // wide as the widest hedge) + completion ring.
  OpTable ops_;
  CompletionRing completions_;
  std::vector<CompletionRecord> drained_;
  std::function<void()> idle_;  // WhenIdle's pending callback
  uint64_t outcome_digest_ = 14695981039346656037ull;  // FNV-1a offset basis

  // Hot-path caches: per-node registry channels (skip the name hash on
  // every observation), one reusable DepthFn, and routing scratch buffers
  // (never reused across a call that can re-enter routing: Dispatch only
  // schedules events, and a hedged attempt copies its candidates into its
  // op row).
  std::vector<PerformanceStateRegistry::ObsChannel> channels_;
  ReplicaSelector::DepthFn depth_fn_;
  std::vector<int> replicas_scratch_;  // the key's ring walk
  std::vector<int> ranked_scratch_;

  int client_port_;
  int64_t reads_ = 0;
  int64_t writes_ = 0;
  int64_t sheds_ = 0;
  int ejections_ = 0;
  int reweights_ = 0;

  // Data plane: per-node stores (key -> version) plus the acked ledger
  // (ordered, so the repair-due set refills in key order).
  std::vector<std::unordered_map<uint64_t, uint64_t>> store_;
  std::map<uint64_t, uint64_t> acked_;
  uint64_t next_version_ = 1;
  int64_t read_misses_ = 0;

  // Crash-recovery lifecycle state.
  std::vector<bool> crash_handler_armed_;
  std::vector<uint64_t> ramp_gen_;  // invalidates in-flight ramp steps
  SimTime recovery_until_;
  bool repair_active_ = false;
  uint64_t repair_cursor_ = 0;
  // Repair-due set: the acked keys that may be missing a copy, ordered so
  // repair walks them in key order. Invariant: every key with a repair
  // target is in it. A key enters when its acked version rises; every
  // acked key re-enters at the next step after a crash wipes a store
  // (repair_rescan_) or the ring's epoch moves (repair_epoch_); a step
  // drops a key once every replica, up or down, holds the acked version.
  std::set<uint64_t> repair_due_;
  bool repair_rescan_ = false;
  uint64_t repair_epoch_ = 0;  // ShardMap epoch the previous step saw
  int crashes_ = 0;
  int recoveries_ = 0;
  int64_t keys_repaired_ = 0;

  // NMR accounting.
  int64_t nmr_reads_ = 0;
  int64_t nmr_acks_ = 0;
};

}  // namespace fst

#endif  // SRC_CLUSTER_CLUSTER_H_

// A deterministic, simulator-native replicated metadata service.
//
// The paper's complaint about classical fault models applies to consensus
// itself: Raft and Paxos deployments assume a leader either leads or is
// dead, but a real leader gc-pauses, swaps, or runs at a third of spec —
// and a stuttering leader stalls every control-plane decision that routes
// through it. This module makes that first-class: a 3-5 replica Raft-style
// log (terms, randomized-but-seeded election timeouts, heartbeat leader
// election, majority commit, snapshot/compaction) where every replica is a
// full `Node` device behind a metadata `Switch`. Every RPC pays simulated
// link latency; every append and message-handling step pays compute on the
// replica's device; and because replicas are FaultableDevices, the whole
// existing slow/gc/crash/flap fault catalog applies to them — including
// "gc-pause whoever currently leads", the chaos DSL's `node=leader`
// selector.
//
// What the log replicates is the control plane: ConfigChange entries
// (eject / uneject / set-weight, src/consensus/log.h) applied in log order
// by every replica's ControlState. A serving KvService binds to one local
// replica (the *feed*) and mutates its shard map and selector weights only
// when that replica applies a committed entry — so a stuttering or
// partitioned control plane visibly delays reconfiguration instead of
// being an omniscient oracle (BindControlPlane; the legacy direct path
// remains the default and is bit-identical).
//
// Determinism: all timing randomness (election timeouts) comes from RNG
// streams forked off the simulator root at construction; message payloads
// are plain values captured in switch-delivery callbacks; and no
// wall-clock or iteration-order nondeterminism exists anywhere, so a
// seeded campaign replays bit-identically at any sweep thread count.
#ifndef SRC_CONSENSUS_RAFT_H_
#define SRC_CONSENSUS_RAFT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/consensus/log.h"
#include "src/core/registry.h"
#include "src/devices/network.h"
#include "src/devices/node.h"
#include "src/obs/recorder.h"
#include "src/simcore/rng.h"
#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {

class KvService;

struct ConsensusParams {
  int replicas = 3;
  // Leader heartbeat pace and the follower election window it must beat.
  // The window is randomized per arming from the replica's forked RNG
  // stream (seeded, so replays are exact): classic Raft split-vote
  // avoidance without wall-clock randomness.
  Duration heartbeat_every = Duration::Millis(60);
  Duration election_timeout_min = Duration::Millis(250);
  Duration election_timeout_max = Duration::Millis(500);
  // Compute cost model, in work units on the replica's Node device. These
  // are what make a stuttering leader *matter*: a gc pause or slowdown on
  // the leader's device delays heartbeat preparation and append handling,
  // which is exactly how followers experience a slow-but-alive leader.
  double handle_work = 200.0;   // processing one inbound RPC
  double append_work = 400.0;   // durably appending one log entry
  double prepare_work = 150.0;  // leader/candidate broadcast preparation
  int64_t message_bytes = 192;  // base RPC size on the metadata switch
  int64_t entry_bytes = 48;     // marginal bytes per carried entry
  int max_batch = 16;           // entries per AppendEntries RPC
  // Compaction: once a replica has this many applied entries above its
  // snapshot, it snapshots its ControlState and truncates the prefix.
  // Followers that fell behind a compacted leader catch up by snapshot
  // installation.
  int snapshot_every = 64;
  // Client (proposal) resubmission pace while the quorum is leaderless or
  // a submitted entry was lost to a leader crash.
  Duration propose_retry = Duration::Millis(150);
  NodeParams node;   // per-replica compute model
  SwitchParams net;  // metadata interconnect; ports forced to >= replicas
  // Dimensions of the replicated ControlState; must match the serving
  // ShardMap so applied-state digests are comparable against it.
  int data_nodes = 4;
  ShardMapParams shard;
  // When a registry is bound, replicas register as "meta<i>" with this
  // liveness deadline override — tighter than the data plane's, because
  // control-plane heartbeats are both smaller and more frequent.
  Duration liveness_deadline = Duration::Millis(600);
  double spec_tolerance = 0.25;
};

// In-simulation RPC payload. Delivered by value through the metadata
// switch; oversized captures spill to InlineFunction's heap path.
struct RaftMsg {
  enum Type : uint8_t {
    kRequestVote = 0,
    kVoteReply = 1,
    kAppend = 2,
    kAppendReply = 3,
    kSnapshot = 4,
  };
  Type type = kRequestVote;
  int from = 0;
  uint64_t term = 0;
  // kRequestVote: candidate's log position; kVoteReply: granted.
  uint64_t last_log_index = 0;
  uint64_t last_log_term = 0;
  bool granted = false;
  // kAppend: entries [prev_index+1 ...] and the leader's commit index.
  uint64_t prev_index = 0;
  uint64_t prev_term = 0;
  uint64_t commit_index = 0;
  std::vector<LogEntry> entries;
  // kAppendReply: success + the follower's durable match index (on
  // failure, a fast-backup hint).
  bool success = false;
  uint64_t match_index = 0;
  // kSnapshot: a full ControlState image at snap.applied_index.
  ControlSnapshot snap;
  uint64_t snap_term = 0;
};

class ConsensusGroup;

// One replica of the metadata quorum: a Raft role machine whose term,
// vote, log, and snapshot survive crash-restart (persistent state), and
// whose commit/applied state is rebuilt from the snapshot + re-learned
// commit index after a restart (volatile state) — the snapshot-restore +
// idempotent-replay path the determinism tests pin.
class MetadataNode {
 public:
  MetadataNode(ConsensusGroup& group, int id, Rng rng,
               EventRecorder* recorder);

  enum class Role : uint8_t { kFollower, kCandidate, kLeader };

  void Start();
  void Handle(const RaftMsg& msg);
  // Leader-side client submission: pays the durable-append compute, then
  // appends and replicates. Silently dropped when not (still) the leader —
  // the group's retry loop owns resubmission.
  void ClientAppend(ConfigChange change);
  void HeartbeatTick(uint64_t gen);

  Node& device() { return *device_; }
  const Node& device() const { return *device_; }
  const std::string& name() const { return name_; }
  Role role() const { return role_; }
  uint64_t term() const { return term_; }
  uint64_t commit_index() const { return commit_; }
  uint64_t last_index() const {
    return log_base_ + static_cast<uint64_t>(log_.size());
  }
  const ControlState& state() const { return state_; }
  const ControlSnapshot& snapshot() const { return snap_; }
  // Committed entries still present in the (possibly compacted) log:
  // [log_base_+1, commit_], exposed for the replay-determinism tests.
  std::vector<LogEntry> CommittedSuffix() const;
  int compactions() const { return compactions_; }

 private:
  friend class ConsensusGroup;

  uint64_t TermAt(uint64_t index) const;
  const LogEntry& EntryAt(uint64_t index) const;

  void ReArmElectionTimer();
  void StartElection();
  void BecomeLeader();
  void StepDown(uint64_t new_term);
  void BroadcastAppend();
  void SendAppendTo(int peer);
  void HandleRequestVote(const RaftMsg& msg);
  void HandleVoteReply(const RaftMsg& msg);
  void HandleAppend(const RaftMsg& msg);
  void HandleAppendReply(const RaftMsg& msg);
  void HandleSnapshot(const RaftMsg& msg);
  void AdvanceCommit();
  void ApplyCommitted();
  void MaybeCompact();
  void ArmFaultHandlers();
  void OnCrash();
  void OnRestart();

  ConsensusGroup& group_;
  int id_;
  std::string name_;
  Rng rng_;
  std::unique_ptr<Node> device_;

  // Persistent state (survives crash-restart).
  uint64_t term_ = 0;
  int voted_for_ = -1;
  std::vector<LogEntry> log_;  // entries (log_base_, log_base_+size]
  uint64_t log_base_ = 0;      // last index covered by snap_
  uint64_t base_term_ = 0;
  ControlSnapshot snap_;

  // Volatile state.
  Role role_ = Role::kFollower;
  uint64_t commit_ = 0;
  ControlState state_;
  SimTime last_heartbeat_;
  EventId timer_event_{};
  bool timer_armed_ = false;
  uint64_t hb_gen_ = 0;
  int votes_ = 0;
  std::vector<uint64_t> next_index_;
  std::vector<uint64_t> match_index_;
  int compactions_ = 0;
};

// The quorum plus its interconnect, client (proposal) pipeline, and the
// election/reconfiguration bookkeeping the chaos invariants check.
class ConsensusGroup {
 public:
  using ApplyFn = std::function<void(uint64_t index, const ConfigChange&)>;

  // Throws std::invalid_argument unless replicas >= 1, heartbeat_every
  // and both election timeouts are positive, and election_timeout_min <=
  // election_timeout_max.
  ConsensusGroup(Simulator& sim, ConsensusParams params,
                 EventRecorder* recorder = nullptr);

  // Arms election timers, fault handlers, and the stats horizon. Timers
  // and retries stop re-arming past `until` so the event queue drains.
  void Start(SimTime until);

  // Client entry point: enqueues a config change for replication. FIFO
  // with a window of one — the next proposal is submitted only once the
  // feed replica applies the current head, so retried duplicates are
  // always adjacent and idempotent, never reordered across a later
  // conflicting change.
  void Propose(ConfigChange change);

  // Fires on every entry the *feed* replica (replica 0) applies,
  // including idempotent re-applies after a crash-restart restores it
  // from its snapshot.
  void OnApply(ApplyFn fn) { apply_fn_ = std::move(fn); }

  // Registers every replica as "meta<i>" with a tighter per-component
  // liveness deadline (PerformanceStateRegistry::SetLivenessDeadline);
  // successful message handling records liveness proofs.
  void BindRegistry(PerformanceStateRegistry* registry);

  int replicas() const { return params_.replicas; }
  MetadataNode& replica(int i) { return *nodes_[static_cast<size_t>(i)]; }
  const MetadataNode& replica(int i) const {
    return *nodes_[static_cast<size_t>(i)];
  }
  // Elected leader whose device is currently up, else -1.
  int leader() const { return current_leader_; }
  // The device leader-targeted faults should hit right now: the live
  // leader, else the most recently elected leader, else replica 0.
  FaultableDevice& LeaderDeviceOrFallback();
  const ConsensusParams& params() const { return params_; }
  Switch& network() { return *switch_; }

  // -- Stats for the scorecard / E28 --
  int elections_started() const { return elections_started_; }
  int elections_won() const { return elections_won_; }
  // Elections started while the previously elected leader's device was
  // still up: the control plane mistaking a stutter for a crash.
  int false_failovers() const { return false_failovers_; }
  uint64_t max_commit() const { return max_commit_; }
  int snapshots_taken() const { return snapshots_taken_; }
  int snapshots_installed() const { return snapshots_installed_; }
  double leaderless_seconds() const;
  double max_leaderless_seconds() const;
  int reconfigs_applied() const { return reconfigs_applied_; }
  double reconfig_mean_ms() const;
  double reconfig_max_ms() const;
  size_t pending_proposals() const { return pending_.size(); }

  // Invariant sweep for campaign checks (call after the run quiesces):
  //   * at most one leader was ever elected per term;
  //   * no follower ever truncated a committed entry (no split-brain log);
  //   * a majority of replicas is up and every up replica agrees on
  //     (applied index, ControlState digest);
  //   * no leaderless span exceeded `unavailability_bound`.
  std::vector<std::string> CheckInvariants(
      Duration unavailability_bound) const;

 private:
  friend class MetadataNode;

  void Send(int from, int to, RaftMsg msg);
  void Deliver(int to, RaftMsg msg);
  void TrySubmitHead();
  void ArmRetry();
  void NoteElectionStarted(int id);
  void NoteLeaderElected(int id, uint64_t term);
  void NoteLeaderLost(int id);
  void NoteApplied(int id, uint64_t index, const ConfigChange& change);
  void NoteLiveness(int id);
  void CloseLeaderlessSpan(SimTime now);

  struct PendingProposal {
    uint64_t id = 0;
    ConfigChange change;
    SimTime enqueued;
  };

  Simulator& sim_;
  ConsensusParams params_;
  EventRecorder* recorder_;
  std::unique_ptr<Switch> switch_;
  std::vector<std::unique_ptr<MetadataNode>> nodes_;
  PerformanceStateRegistry* registry_ = nullptr;
  ApplyFn apply_fn_;
  SimTime until_;
  bool started_ = false;

  std::deque<PendingProposal> pending_;
  uint64_t next_proposal_ = 1;
  bool retry_armed_ = false;

  int current_leader_ = -1;
  int last_elected_ = -1;
  std::map<uint64_t, std::vector<int>> leaders_per_term_;
  bool log_conflict_ = false;
  int elections_started_ = 0;
  int elections_won_ = 0;
  int false_failovers_ = 0;
  uint64_t max_commit_ = 0;
  int snapshots_taken_ = 0;
  int snapshots_installed_ = 0;
  int reconfigs_applied_ = 0;
  double reconfig_total_ms_ = 0.0;
  double reconfig_max_ms_ = 0.0;
  bool leaderless_open_ = true;
  SimTime leaderless_since_;
  int64_t leaderless_nanos_ = 0;
  int64_t max_leaderless_nanos_ = 0;
};

// Routes every KvService control mutation (eject / uneject / weight step)
// through the group's committed log and applies committed entries from
// the feed replica back onto the serving shard map and selector — the
// tentpole wiring: ownership decisions now pay real consensus latency and
// survive only by majority. The group must outlive the service's use.
void BindControlPlane(ConsensusGroup& group, KvService& service);

}  // namespace fst

#endif  // SRC_CONSENSUS_RAFT_H_

#include "src/consensus/raft.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "src/cluster/cluster.h"

namespace fst {

// ---------------------------------------------------------------------------
// MetadataNode

MetadataNode::MetadataNode(ConsensusGroup& group, int id, Rng rng,
                           EventRecorder* recorder)
    : group_(group), id_(id), name_("meta" + std::to_string(id)),
      rng_(rng),
      device_(std::make_unique<Node>(group.sim_, name_, group.params_.node,
                                     recorder)),
      state_(group.params_.data_nodes, group.params_.shard),
      last_heartbeat_(SimTime::Zero()) {}

uint64_t MetadataNode::TermAt(uint64_t index) const {
  if (index == 0) {
    return 0;
  }
  if (index == log_base_) {
    return base_term_;
  }
  return log_[static_cast<size_t>(index - log_base_ - 1)].term;
}

const LogEntry& MetadataNode::EntryAt(uint64_t index) const {
  return log_[static_cast<size_t>(index - log_base_ - 1)];
}

std::vector<LogEntry> MetadataNode::CommittedSuffix() const {
  std::vector<LogEntry> out;
  for (uint64_t i = log_base_ + 1; i <= commit_; ++i) {
    out.push_back(EntryAt(i));
  }
  return out;
}

void MetadataNode::Start() {
  last_heartbeat_ = group_.sim_.Now();
  ArmFaultHandlers();
  ReArmElectionTimer();
}

void MetadataNode::ArmFaultHandlers() {
  device_->OnFailure([this] { OnCrash(); });
  device_->OnRecovery([this] { OnRestart(); });
}

void MetadataNode::OnCrash() {
  if (timer_armed_) {
    group_.sim_.Cancel(timer_event_);
    timer_armed_ = false;
  }
  ++hb_gen_;  // kill any live heartbeat chain
  group_.NoteLeaderLost(id_);
}

void MetadataNode::OnRestart() {
  // Persistent state (term, vote, log, snapshot) survived; volatile state
  // is rebuilt exactly the way a real restart does it — restore the last
  // durable snapshot and wait to re-learn the commit index. Entries above
  // the snapshot get re-applied when it arrives; every ConfigChange is
  // idempotent, so the replayed suffix converges to the pre-crash state.
  role_ = Role::kFollower;
  votes_ = 0;
  state_.Restore(snap_);
  commit_ = snap_.applied_index;
  last_heartbeat_ = group_.sim_.Now();
  ArmFaultHandlers();
  ReArmElectionTimer();
}

void MetadataNode::ReArmElectionTimer() {
  if (timer_armed_) {
    group_.sim_.Cancel(timer_event_);
    timer_armed_ = false;
  }
  const SimTime now = group_.sim_.Now();
  if (now >= group_.until_) {
    return;
  }
  const ConsensusParams& p = group_.params_;
  const double span_s =
      (p.election_timeout_max - p.election_timeout_min).ToSeconds();
  const Duration timeout =
      p.election_timeout_min +
      Duration::Seconds(span_s > 0.0 ? rng_.UniformDouble(0.0, span_s) : 0.0);
  timer_event_ = group_.sim_.ScheduleAt(now + timeout, [this, timeout] {
    timer_armed_ = false;
    if (device_->has_failed() || role_ == Role::kLeader) {
      return;
    }
    if (group_.sim_.Now() >= group_.until_) {
      // Past the stats horizon heartbeats have stopped by design; an
      // election now would be a pure wind-down artifact.
      return;
    }
    if (group_.sim_.Now() - last_heartbeat_ < timeout) {
      // A heartbeat landed while this timer was in flight; re-arm rather
      // than start a gratuitous election.
      ReArmElectionTimer();
      return;
    }
    StartElection();
  });
  timer_armed_ = true;
}

void MetadataNode::StartElection() {
  role_ = Role::kCandidate;
  ++term_;
  voted_for_ = id_;
  votes_ = 1;
  group_.NoteElectionStarted(id_);
  ReArmElectionTimer();  // candidacy retry window
  if (2 * votes_ > group_.params_.replicas) {
    BecomeLeader();  // single-replica quorum
    return;
  }
  // Campaign preparation pays compute, so a stuttering candidate is slow
  // to even ask for votes.
  const uint64_t term_snapshot = term_;
  device_->Compute(group_.params_.prepare_work,
                   [this, term_snapshot](const IoResult& r) {
                     if (!r.ok || role_ != Role::kCandidate ||
                         term_ != term_snapshot) {
                       return;
                     }
                     RaftMsg m;
                     m.type = RaftMsg::kRequestVote;
                     m.from = id_;
                     m.term = term_;
                     m.last_log_index = last_index();
                     m.last_log_term = TermAt(last_index());
                     for (int j = 0; j < group_.params_.replicas; ++j) {
                       if (j != id_) {
                         group_.Send(id_, j, m);
                       }
                     }
                   });
}

void MetadataNode::BecomeLeader() {
  role_ = Role::kLeader;
  const size_t n = static_cast<size_t>(group_.params_.replicas);
  next_index_.assign(n, last_index() + 1);
  match_index_.assign(n, 0);
  match_index_[static_cast<size_t>(id_)] = last_index();
  group_.NoteLeaderElected(id_, term_);
  // Barrier entry: commits everything from prior terms once replicated
  // (Raft only counts replicas for current-term entries).
  log_.push_back(LogEntry{term_, ConfigChange{}});
  match_index_[static_cast<size_t>(id_)] = last_index();
  const uint64_t gen = ++hb_gen_;
  HeartbeatTick(gen);
}

void MetadataNode::StepDown(uint64_t new_term) {
  const bool was_leader = role_ == Role::kLeader;
  term_ = new_term;
  voted_for_ = -1;
  role_ = Role::kFollower;
  votes_ = 0;
  ++hb_gen_;
  if (was_leader) {
    group_.NoteLeaderLost(id_);
  }
  ReArmElectionTimer();
}

void MetadataNode::HeartbeatTick(uint64_t gen) {
  if (gen != hb_gen_ || role_ != Role::kLeader || device_->has_failed()) {
    return;
  }
  // The broadcast is prepared on the leader's own device: a gc pause or
  // slowdown here is precisely the stuttering-leader scenario — heartbeats
  // go out late, followers time out, and a false failover begins even
  // though the leader never died.
  device_->Compute(group_.params_.prepare_work, [this, gen](const IoResult& r) {
    if (!r.ok || gen != hb_gen_ || role_ != Role::kLeader) {
      return;
    }
    group_.NoteLiveness(id_);
    BroadcastAppend();
    const SimTime now = group_.sim_.Now();
    if (now + group_.params_.heartbeat_every <= group_.until_) {
      group_.sim_.Schedule(group_.params_.heartbeat_every,
                           [this, gen] { HeartbeatTick(gen); });
    }
  });
}

void MetadataNode::BroadcastAppend() {
  for (int j = 0; j < group_.params_.replicas; ++j) {
    if (j != id_) {
      SendAppendTo(j);
    }
  }
}

void MetadataNode::SendAppendTo(int peer) {
  const uint64_t next = next_index_[static_cast<size_t>(peer)];
  if (next <= log_base_) {
    // The entries this follower needs were compacted away: install the
    // snapshot instead, then resume appends above it.
    RaftMsg m;
    m.type = RaftMsg::kSnapshot;
    m.from = id_;
    m.term = term_;
    m.snap = snap_;
    m.snap_term = base_term_;
    m.commit_index = commit_;
    group_.Send(id_, peer, std::move(m));
    return;
  }
  RaftMsg m;
  m.type = RaftMsg::kAppend;
  m.from = id_;
  m.term = term_;
  m.prev_index = next - 1;
  m.prev_term = TermAt(next - 1);
  m.commit_index = commit_;
  const uint64_t last = last_index();
  for (uint64_t i = next;
       i <= last && m.entries.size() <
                        static_cast<size_t>(std::max(1, group_.params_.max_batch));
       ++i) {
    m.entries.push_back(EntryAt(i));
  }
  group_.Send(id_, peer, std::move(m));
}

void MetadataNode::ClientAppend(ConfigChange change) {
  if (role_ != Role::kLeader || device_->has_failed()) {
    return;
  }
  const uint64_t term_snapshot = term_;
  device_->Compute(
      group_.params_.append_work,
      [this, term_snapshot, change](const IoResult& r) {
        if (!r.ok || role_ != Role::kLeader || term_ != term_snapshot) {
          return;  // deposed or crashed mid-append; the client retries
        }
        log_.push_back(LogEntry{term_, change});
        match_index_[static_cast<size_t>(id_)] = last_index();
        if (group_.params_.replicas == 1) {
          AdvanceCommit();
        }
        BroadcastAppend();
      });
}

void MetadataNode::Handle(const RaftMsg& msg) {
  if (msg.term > term_) {
    StepDown(msg.term);
  }
  switch (msg.type) {
    case RaftMsg::kRequestVote:
      HandleRequestVote(msg);
      break;
    case RaftMsg::kVoteReply:
      HandleVoteReply(msg);
      break;
    case RaftMsg::kAppend:
      HandleAppend(msg);
      break;
    case RaftMsg::kAppendReply:
      HandleAppendReply(msg);
      break;
    case RaftMsg::kSnapshot:
      HandleSnapshot(msg);
      break;
  }
}

void MetadataNode::HandleRequestVote(const RaftMsg& msg) {
  RaftMsg reply;
  reply.type = RaftMsg::kVoteReply;
  reply.from = id_;
  reply.term = term_;
  if (msg.term >= term_) {
    const bool log_ok =
        msg.last_log_term > TermAt(last_index()) ||
        (msg.last_log_term == TermAt(last_index()) &&
         msg.last_log_index >= last_index());
    if ((voted_for_ == -1 || voted_for_ == msg.from) && log_ok) {
      voted_for_ = msg.from;
      reply.granted = true;
      last_heartbeat_ = group_.sim_.Now();
      ReArmElectionTimer();
    }
  }
  group_.Send(id_, msg.from, std::move(reply));
}

void MetadataNode::HandleVoteReply(const RaftMsg& msg) {
  if (role_ != Role::kCandidate || msg.term != term_ || !msg.granted) {
    return;
  }
  ++votes_;
  if (2 * votes_ > group_.params_.replicas) {
    BecomeLeader();
  }
}

void MetadataNode::HandleAppend(const RaftMsg& msg) {
  RaftMsg reply;
  reply.type = RaftMsg::kAppendReply;
  reply.from = id_;
  if (msg.term < term_) {
    reply.term = term_;
    group_.Send(id_, msg.from, std::move(reply));
    return;
  }
  if (role_ != Role::kFollower) {
    // Same-term candidate (or a stale leader view): the quorum has a
    // legitimate leader for this term; fall in line.
    const bool was_leader = role_ == Role::kLeader;
    role_ = Role::kFollower;
    votes_ = 0;
    ++hb_gen_;
    if (was_leader) {
      group_.NoteLeaderLost(id_);
    }
  }
  reply.term = term_;
  last_heartbeat_ = group_.sim_.Now();
  ReArmElectionTimer();

  // Entries below our snapshot base are committed and therefore already
  // match; skip them and anchor the consistency check at the base.
  uint64_t prev = msg.prev_index;
  size_t skip = 0;
  bool prev_known = true;
  if (prev < log_base_) {
    skip = std::min(static_cast<size_t>(log_base_ - prev), msg.entries.size());
    prev = log_base_;
    prev_known = false;  // covered by the snapshot: match is implied
  }
  if (prev > last_index() ||
      (prev_known && TermAt(prev) != msg.prev_term && msg.prev_index > 0)) {
    reply.success = false;
    reply.match_index = std::min(prev > 0 ? prev - 1 : 0, last_index());
    group_.Send(id_, msg.from, std::move(reply));
    return;
  }

  uint64_t index = prev;
  for (size_t k = skip; k < msg.entries.size(); ++k) {
    ++index;
    if (index <= last_index()) {
      if (TermAt(index) == msg.entries[k].term) {
        continue;  // already durable
      }
      // Conflicting suffix: truncate ours from here. Truncating a
      // committed entry would be a split-brain log — flagged, never
      // expected.
      if (index <= commit_) {
        group_.log_conflict_ = true;
      }
      log_.resize(static_cast<size_t>(index - log_base_ - 1));
    }
    log_.push_back(msg.entries[k]);
  }
  const uint64_t match = prev + (msg.entries.size() - skip);
  if (msg.commit_index > commit_) {
    commit_ = std::min(msg.commit_index, last_index());
    ApplyCommitted();
    MaybeCompact();
  }
  reply.success = true;
  reply.match_index = std::max(match, log_base_);
  group_.Send(id_, msg.from, std::move(reply));
}

void MetadataNode::HandleAppendReply(const RaftMsg& msg) {
  if (role_ != Role::kLeader || msg.term != term_) {
    return;
  }
  const size_t peer = static_cast<size_t>(msg.from);
  if (msg.success) {
    match_index_[peer] = std::max(match_index_[peer], msg.match_index);
    next_index_[peer] = match_index_[peer] + 1;
    AdvanceCommit();
  } else {
    // Fast backup toward the follower's hint; clamped so next_index never
    // goes below 1.
    const uint64_t hint = msg.match_index + 1;
    next_index_[peer] =
        std::max<uint64_t>(1, std::min(next_index_[peer] - 1, hint));
  }
}

void MetadataNode::HandleSnapshot(const RaftMsg& msg) {
  RaftMsg reply;
  reply.type = RaftMsg::kAppendReply;
  reply.from = id_;
  reply.term = term_;
  if (msg.term < term_) {
    group_.Send(id_, msg.from, std::move(reply));
    return;
  }
  last_heartbeat_ = group_.sim_.Now();
  ReArmElectionTimer();
  if (msg.snap.applied_index > log_base_) {
    // Install: discard the log prefix the snapshot covers; keep any
    // suffix that extends beyond it.
    const uint64_t covered = msg.snap.applied_index;
    if (covered >= last_index()) {
      log_.clear();
    } else {
      log_.erase(log_.begin(),
                 log_.begin() + static_cast<long>(covered - log_base_));
    }
    log_base_ = covered;
    base_term_ = msg.snap_term;
    snap_ = msg.snap;
    state_.Restore(snap_);
    commit_ = std::max(commit_, covered);
    group_.snapshots_installed_++;
    // Re-announce applies for anything the restored state already covers
    // happens implicitly: applied_index jumped to the snapshot's.
  }
  if (msg.commit_index > commit_) {
    commit_ = std::min(msg.commit_index, last_index());
  }
  ApplyCommitted();
  reply.success = true;
  reply.match_index = std::max(log_base_, state_.applied_index());
  group_.Send(id_, msg.from, std::move(reply));
}

void MetadataNode::AdvanceCommit() {
  const int n = group_.params_.replicas;
  for (uint64_t cand = last_index(); cand > commit_; --cand) {
    if (TermAt(cand) != term_) {
      break;  // only current-term entries commit by counting (Raft §5.4.2)
    }
    int acks = 0;
    for (int j = 0; j < n; ++j) {
      if (match_index_[static_cast<size_t>(j)] >= cand) {
        ++acks;
      }
    }
    if (2 * acks > n) {
      commit_ = cand;
      ApplyCommitted();
      MaybeCompact();
      // Propagate the new commit index promptly instead of waiting a
      // heartbeat: one extra (entry-free) broadcast per commit advance.
      BroadcastAppend();
      break;
    }
  }
}

void MetadataNode::ApplyCommitted() {
  while (state_.applied_index() < commit_) {
    const uint64_t next = state_.applied_index() + 1;
    const LogEntry& e = EntryAt(next);
    state_.Apply(next, e.change);
    group_.NoteApplied(id_, next, e.change);
  }
}

void MetadataNode::MaybeCompact() {
  const uint64_t applied = state_.applied_index();
  if (applied - log_base_ <
      static_cast<uint64_t>(std::max(1, group_.params_.snapshot_every))) {
    return;
  }
  base_term_ = TermAt(applied);
  snap_ = state_.TakeSnapshot();
  log_.erase(log_.begin(),
             log_.begin() + static_cast<long>(applied - log_base_));
  log_base_ = applied;
  ++compactions_;
  group_.snapshots_taken_++;
}

// ---------------------------------------------------------------------------
// ConsensusGroup

namespace {

void ValidateConsensusParams(const ConsensusParams& params) {
  if (params.replicas < 1) {
    throw std::invalid_argument("ConsensusParams.replicas must be >= 1");
  }
  if (params.heartbeat_every <= Duration::Zero()) {
    throw std::invalid_argument("ConsensusParams.heartbeat_every must be > 0");
  }
  if (params.election_timeout_min <= Duration::Zero() ||
      params.election_timeout_max <= Duration::Zero()) {
    throw std::invalid_argument(
        "ConsensusParams election timeouts must be > 0");
  }
  if (params.election_timeout_min > params.election_timeout_max) {
    // The timer draws from [min, max]; an inverted window never elects.
    throw std::invalid_argument(
        "ConsensusParams.election_timeout_min must be <= "
        "election_timeout_max");
  }
}

}  // namespace

ConsensusGroup::ConsensusGroup(Simulator& sim, ConsensusParams params,
                               EventRecorder* recorder)
    : sim_(sim), params_((ValidateConsensusParams(params), std::move(params))),
      recorder_(recorder), until_(SimTime::Zero()),
      leaderless_since_(SimTime::Zero()) {
  params_.net.ports = std::max(params_.net.ports, params_.replicas);
  switch_ = std::make_unique<Switch>(sim_, params_.net, nullptr, recorder_);
  Rng root = sim_.rng().Fork();
  for (int i = 0; i < params_.replicas; ++i) {
    nodes_.push_back(
        std::make_unique<MetadataNode>(*this, i, root.Fork(), recorder_));
  }
}

void ConsensusGroup::Start(SimTime until) {
  until_ = until;
  started_ = true;
  const SimTime now = sim_.Now();
  leaderless_open_ = true;
  leaderless_since_ = now;
  for (auto& node : nodes_) {
    if (registry_ != nullptr) {
      registry_->RecordLiveness(node->name(), now);
    }
    node->Start();
  }
  // Close any open leaderless span at the horizon so the bounded-
  // unavailability stats cover the whole run.
  sim_.ScheduleAt(until, [this] { CloseLeaderlessSpan(sim_.Now()); });
}

void ConsensusGroup::BindRegistry(PerformanceStateRegistry* registry) {
  registry_ = registry;
  if (registry_ == nullptr) {
    return;
  }
  for (const auto& node : nodes_) {
    registry_->Register(node->name(),
                        PerformanceSpec::RateBand(params_.node.cpu_rate,
                                                  params_.spec_tolerance));
    registry_->SetLivenessDeadline(node->name(), params_.liveness_deadline);
  }
}

void ConsensusGroup::Send(int from, int to, RaftMsg msg) {
  NetMessage m;
  m.src = from;
  m.dst = to;
  m.bytes = params_.message_bytes +
            params_.entry_bytes * static_cast<int64_t>(msg.entries.size());
  if (msg.type == RaftMsg::kSnapshot) {
    m.bytes += params_.entry_bytes *
               static_cast<int64_t>(msg.snap.weights.size() + 2);
  }
  m.done = [this, to, msg = std::move(msg)](SimTime) mutable {
    Deliver(to, std::move(msg));
  };
  switch_->Send(std::move(m));
}

void ConsensusGroup::Deliver(int to, RaftMsg msg) {
  MetadataNode& node = *nodes_[static_cast<size_t>(to)];
  if (node.device().has_failed()) {
    return;  // dropped on the floor, like any RPC to a dead host
  }
  // Handling pays compute on the receiving replica — appends additionally
  // pay the durable-append cost per carried entry — so slow/gc faults on a
  // replica delay its votes, acks, and applies.
  double work = params_.handle_work;
  if (msg.type == RaftMsg::kAppend) {
    work += params_.append_work * static_cast<double>(msg.entries.size());
  } else if (msg.type == RaftMsg::kSnapshot) {
    work += params_.append_work * 2.0;
  }
  node.device().Compute(
      work, [this, to, msg = std::move(msg)](const IoResult& r) {
        if (!r.ok) {
          return;  // crashed while the message was in its queue
        }
        NoteLiveness(to);
        nodes_[static_cast<size_t>(to)]->Handle(msg);
      });
}

FaultableDevice& ConsensusGroup::LeaderDeviceOrFallback() {
  if (current_leader_ >= 0) {
    return nodes_[static_cast<size_t>(current_leader_)]->device();
  }
  if (last_elected_ >= 0) {
    return nodes_[static_cast<size_t>(last_elected_)]->device();
  }
  return nodes_[0]->device();
}

void ConsensusGroup::Propose(ConfigChange change) {
  change.proposal = next_proposal_++;
  pending_.push_back(PendingProposal{change.proposal, change, sim_.Now()});
  if (pending_.size() == 1) {
    TrySubmitHead();
  }
  ArmRetry();
}

void ConsensusGroup::TrySubmitHead() {
  if (pending_.empty() || current_leader_ < 0) {
    return;
  }
  MetadataNode& leader = *nodes_[static_cast<size_t>(current_leader_)];
  if (leader.device().has_failed()) {
    return;
  }
  leader.ClientAppend(pending_.front().change);
}

void ConsensusGroup::ArmRetry() {
  if (retry_armed_ || !started_) {
    return;
  }
  const SimTime now = sim_.Now();
  if (now + params_.propose_retry > until_) {
    return;
  }
  retry_armed_ = true;
  sim_.Schedule(params_.propose_retry, [this] {
    retry_armed_ = false;
    if (pending_.empty()) {
      return;
    }
    // Resubmission is idempotent-by-construction: the window-of-one
    // client means a duplicate can only duplicate the head, and adjacent
    // duplicate ConfigChanges are no-ops at the state machine.
    TrySubmitHead();
    ArmRetry();
  });
}

void ConsensusGroup::NoteElectionStarted(int id) {
  ++elections_started_;
  if (current_leader_ >= 0 && current_leader_ != id &&
      !nodes_[static_cast<size_t>(current_leader_)]->device().has_failed()) {
    // The deposed leader is alive — merely slow. This election is the
    // false failover the paper's detector-quality questions are about.
    ++false_failovers_;
  }
}

void ConsensusGroup::NoteLeaderElected(int id, uint64_t term) {
  ++elections_won_;
  leaders_per_term_[term].push_back(id);
  current_leader_ = id;
  last_elected_ = id;
  CloseLeaderlessSpan(sim_.Now());
  TrySubmitHead();
}

void ConsensusGroup::NoteLeaderLost(int id) {
  if (current_leader_ == id) {
    current_leader_ = -1;
    leaderless_open_ = true;
    leaderless_since_ = sim_.Now();
  }
}

void ConsensusGroup::CloseLeaderlessSpan(SimTime now) {
  if (!leaderless_open_) {
    return;
  }
  leaderless_open_ = false;
  const int64_t span = (now - leaderless_since_).nanos();
  leaderless_nanos_ += span;
  max_leaderless_nanos_ = std::max(max_leaderless_nanos_, span);
}

void ConsensusGroup::NoteApplied(int id, uint64_t index,
                                 const ConfigChange& change) {
  max_commit_ = std::max(max_commit_, index);
  if (id != 0) {
    return;  // the feed replica is replica 0
  }
  if (!pending_.empty() && change.proposal == pending_.front().id) {
    const double ms =
        (sim_.Now() - pending_.front().enqueued).ToSeconds() * 1e3;
    ++reconfigs_applied_;
    reconfig_total_ms_ += ms;
    reconfig_max_ms_ = std::max(reconfig_max_ms_, ms);
    pending_.pop_front();
    TrySubmitHead();
  }
  if (apply_fn_) {
    apply_fn_(index, change);
  }
}

void ConsensusGroup::NoteLiveness(int id) {
  if (registry_ == nullptr) {
    return;
  }
  MetadataNode& node = *nodes_[static_cast<size_t>(id)];
  registry_->RecordLiveness(node.name(), sim_.Now());
  if (registry_->StateOf(node.name()) == PerfState::kFailed) {
    // Serving a message is proof of life; clear the crash verdict.
    registry_->MarkRecovered(node.name(), sim_.Now());
  }
}

double ConsensusGroup::leaderless_seconds() const {
  return static_cast<double>(leaderless_nanos_) / 1e9;
}

double ConsensusGroup::max_leaderless_seconds() const {
  return static_cast<double>(max_leaderless_nanos_) / 1e9;
}

double ConsensusGroup::reconfig_mean_ms() const {
  return reconfigs_applied_ > 0
             ? reconfig_total_ms_ / static_cast<double>(reconfigs_applied_)
             : 0.0;
}

double ConsensusGroup::reconfig_max_ms() const { return reconfig_max_ms_; }

std::vector<std::string> ConsensusGroup::CheckInvariants(
    Duration unavailability_bound) const {
  std::vector<std::string> violations;
  for (const auto& [term, leaders] : leaders_per_term_) {
    std::vector<int> distinct = leaders;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    if (distinct.size() > 1) {
      violations.push_back("term " + std::to_string(term) + " elected " +
                           std::to_string(distinct.size()) + " leaders");
    }
  }
  if (log_conflict_) {
    violations.push_back("a committed log entry was truncated (split-brain)");
  }
  int up = 0;
  for (const auto& node : nodes_) {
    if (!node->device().has_failed()) {
      ++up;
    }
  }
  if (2 * up <= params_.replicas) {
    violations.push_back("no replica majority up at end of run (" +
                         std::to_string(up) + "/" +
                         std::to_string(params_.replicas) + ")");
  }
  bool have_ref = false;
  uint64_t ref_applied = 0;
  uint64_t ref_digest = 0;
  int ref_id = -1;
  for (const auto& node : nodes_) {
    if (node->device().has_failed()) {
      continue;
    }
    const uint64_t applied = node->state().applied_index();
    const uint64_t digest = node->state().Digest();
    if (!have_ref) {
      have_ref = true;
      ref_applied = applied;
      ref_digest = digest;
      ref_id = node->id_;
      continue;
    }
    if (applied != ref_applied || digest != ref_digest) {
      violations.push_back(
          node->name() + " applied state diverges from meta" +
          std::to_string(ref_id) + " (applied " + std::to_string(applied) +
          " vs " + std::to_string(ref_applied) + "): split-brain ownership");
    }
  }
  if (max_leaderless_seconds() > unavailability_bound.ToSeconds()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "leaderless span %.3fs exceeds the %.3fs bound",
                  max_leaderless_seconds(), unavailability_bound.ToSeconds());
    violations.push_back(buf);
  }
  return violations;
}

// ---------------------------------------------------------------------------
// KvService wiring

void BindControlPlane(ConsensusGroup& group, KvService& service) {
  group.BindRegistry(&service.registry());
  service.set_control_route([&group](const ControlCommand& cmd) {
    ConfigChange change;
    switch (cmd.kind) {
      case ControlCommand::Kind::kEject:
        change.kind = ConfigChangeKind::kEject;
        break;
      case ControlCommand::Kind::kUneject:
        change.kind = ConfigChangeKind::kUneject;
        break;
      case ControlCommand::Kind::kSetWeight:
        change.kind = ConfigChangeKind::kSetWeight;
        break;
    }
    change.node = cmd.node;
    change.weight = cmd.weight;
    group.Propose(change);
    return true;
  });
  group.OnApply([&service](uint64_t, const ConfigChange& change) {
    ControlCommand cmd;
    switch (change.kind) {
      case ConfigChangeKind::kNoop:
        return;
      case ConfigChangeKind::kEject:
        cmd.kind = ControlCommand::Kind::kEject;
        break;
      case ConfigChangeKind::kUneject:
        cmd.kind = ControlCommand::Kind::kUneject;
        break;
      case ConfigChangeKind::kSetWeight:
        cmd.kind = ControlCommand::Kind::kSetWeight;
        break;
    }
    cmd.node = change.node;
    cmd.weight = change.weight;
    service.ApplyControl(cmd);
  });
}

}  // namespace fst

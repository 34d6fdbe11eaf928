#include "src/cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace fst {
namespace {

void ValidateClusterParams(const ClusterParams& params) {
  if (params.nodes < 1) {
    throw std::invalid_argument("ClusterParams.nodes must be >= 1");
  }
  if (params.shard.replication < 1 ||
      params.shard.replication > params.nodes) {
    throw std::invalid_argument(
        "ClusterParams.shard.replication must be in [1, nodes]");
  }
  if (params.write_quorum < 1 ||
      params.write_quorum > params.shard.replication) {
    throw std::invalid_argument(
        "ClusterParams.write_quorum must be in [1, shard.replication]");
  }
  if (params.hedge_reads && params.hedge.max_hedges < 0) {
    throw std::invalid_argument("HedgeParams.max_hedges must be >= 0");
  }
  if (params.hedge_reads && params.hedge.hedge_delay.IsNegative()) {
    throw std::invalid_argument("HedgeParams.hedge_delay must be >= 0");
  }
  // quorum >= 1 also makes issue >= 1.
  if (params.nmr.enabled &&
      (params.nmr.quorum < 1 || params.nmr.quorum > params.nmr.issue)) {
    throw std::invalid_argument("NmrParams.quorum must be in [1, issue]");
  }
  if (params.nmr.enabled && params.nmr.key_stride < 1) {
    // Reads pick NMR by key % key_stride.
    throw std::invalid_argument("NmrParams.key_stride must be >= 1");
  }
  // Work becomes compute time via the node's cpu_rate, and bytes become
  // transfer time at the switch (which, like the node, checks its own
  // knobs).
  if (!(std::isfinite(params.read_work) && params.read_work > 0.0)) {
    throw std::invalid_argument(
        "ClusterParams.read_work must be finite and > 0");
  }
  if (!(std::isfinite(params.write_work) && params.write_work > 0.0)) {
    throw std::invalid_argument(
        "ClusterParams.write_work must be finite and > 0");
  }
  if (params.request_bytes < 0 || params.response_bytes < 0) {
    throw std::invalid_argument(
        "ClusterParams.request_bytes and response_bytes must be >= 0");
  }
  if (params.admission.max_outstanding_per_node < 1) {
    // A cap of 0 sheds every op.
    throw std::invalid_argument(
        "AdmissionParams.max_outstanding_per_node must be >= 1");
  }
  if (params.live.enabled && params.live.window <= Duration::Zero()) {
    // The window divides sim time into tumbling windows and paces the
    // telemetry tick, which reschedules itself every window.
    throw std::invalid_argument("LivePlaneParams.window must be > 0");
  }
  if (!params.recovery.enabled) {
    return;
  }
  const RecoveryParams& rp = params.recovery;
  if (rp.heartbeat_every <= Duration::Zero()) {
    throw std::invalid_argument("RecoveryParams.heartbeat_every must be > 0");
  }
  if (rp.liveness_timeout <= Duration::Zero()) {
    throw std::invalid_argument("RecoveryParams.liveness_timeout must be > 0");
  }
  // RepairStep reschedules itself every Duration::Seconds(1 / rate): that
  // interval must be a positive, representable number of nanoseconds.
  const double rate = rp.repair_keys_per_sec;
  if (rate == 0.0) {
    return;  // repair off
  }
  const double interval_ns = 1.0 / rate * 1e9;
  if (!(std::isfinite(rate) && rate > 0.0 && interval_ns >= 1.0 &&
        interval_ns < 0x1p63)) {
    throw std::invalid_argument(
        "RecoveryParams.repair_keys_per_sec must be 0 or a finite rate "
        "whose interval 1/rate is in [1 ns, Duration::Max()]");
  }
}

}  // namespace

KvService::KvService(Simulator& sim, ClusterParams params,
                     std::unique_ptr<ReactionPolicy> policy,
                     EventRecorder* recorder)
    : sim_(sim), params_((ValidateClusterParams(params), std::move(params))),
      recorder_(recorder),
      shard_map_(params_.nodes, params_.shard),
      selector_(params_.route, params_.nodes, sim.rng().Fork()),
      admission_(params_.nodes, params_.admission),
      registry_(params_.detector), policy_(std::move(policy)),
      slo_(params_.slo_deadline),
      // The retry stream is forked only when retries are on, so configs
      // without them draw exactly the same RNG sequence as before the
      // retry layer existed.
      retry_(params_.retry,
             params_.retry.enabled ? sim.rng().Fork() : Rng(0)),
      // A hedged read's candidates: at most 1 + max_hedges of the key's
      // replicas.
      ops_(params_.hedge_reads ? std::min(params_.hedge.max_hedges,
                                          params_.shard.replication - 1) +
                                     1
                               : 0),
      client_port_(params_.nodes) {
  params_.net.ports = std::max(params_.net.ports, params_.nodes + 1);
  switch_ = std::make_unique<Switch>(sim_, params_.net, recorder_);
  registry_.set_recorder(recorder_);
  if (recorder_ != nullptr) {
    trace_comp_ = recorder_->Intern("cluster");
  }
  for (int i = 0; i < params_.nodes; ++i) {
    const std::string name = "node" + std::to_string(i);
    nodes_.push_back(
        std::make_unique<Node>(sim_, name, params_.node, recorder_));
    registry_.Register(
        name, PerformanceSpec::RateBand(params_.node.cpu_rate,
                                        params_.spec_tolerance));
    name_to_index_[name] = i;
  }
  // Resolve every node's observation channel once: the dispatch hot path
  // feeds the registry through these instead of re-hashing the name per
  // completion.
  channels_.reserve(static_cast<size_t>(params_.nodes));
  for (int i = 0; i < params_.nodes; ++i) {
    channels_.push_back(registry_.Resolve(nodes_[static_cast<size_t>(i)]->name()));
  }
  depth_fn_ = [this](int n) { return admission_.outstanding(n); };
  if (params_.live.enabled) {
    live_ = std::make_unique<LivePlane>(params_.nodes, params_.live);
  }
  store_.resize(static_cast<size_t>(params_.nodes));
  crash_handler_armed_.assign(static_cast<size_t>(params_.nodes), false);
  ramp_gen_.assign(static_cast<size_t>(params_.nodes), 0);
  if (data_plane()) {
    for (int i = 0; i < params_.nodes; ++i) {
      ArmCrashHandler(i);
    }
  }
  registry_.Subscribe(
      [this](const StateChange& change) { OnStateChange(change); });
}

void KvService::OnStateChange(const StateChange& change) {
  const auto it = name_to_index_.find(change.component);
  if (it == name_to_index_.end()) {
    return;
  }
  const int idx = it->second;
  if (params_.recovery.enabled && change.from == PerfState::kFailed) {
    // This transition was published by MarkRecovered: the recovery
    // lifecycle owns the rejoin (uneject + weight ramp), so the generic
    // reaction path must not snap the weight straight to 1.0.
    return;
  }
  const Reaction reaction = policy_->React(change, registry_);
  switch (reaction.kind) {
    case ReactionKind::kNone:
      if (change.to == PerfState::kHealthy) {
        SubmitControl({ConfigChangeKind::kSetWeight, idx, 1.0});
        SubmitControl({ConfigChangeKind::kUneject, idx, 0.0});
      }
      break;
    case ReactionKind::kReweight:
      ++reweights_;
      SubmitControl({ConfigChangeKind::kSetWeight, idx, reaction.share});
      if (reaction.share > 0.0) {
        SubmitControl({ConfigChangeKind::kUneject, idx, 0.0});
      }
      break;
    case ReactionKind::kEject:
      ++ejections_;
      SubmitControl({ConfigChangeKind::kEject, idx, 0.0});
      break;
  }
  if (recorder_ != nullptr && recorder_->enabled()) {
    recorder_->PolicyAction(change.when, trace_comp_,
                            static_cast<uint16_t>(reaction.kind),
                            reaction.share);
  }
}

void KvService::SubmitControl(const ConfigChange& change) {
  if (control_route_ && control_route_(change)) {
    return;  // claimed: the route applies it back once committed
  }
  ApplyControl(change);
}

void KvService::ApplyControl(const ConfigChange& change) {
  switch (change.kind) {
    case ConfigChangeKind::kNoop:
      break;
    case ConfigChangeKind::kEject:
      selector_.SetWeight(change.node, 0.0);
      shard_map_.Eject(change.node);
      break;
    case ConfigChangeKind::kUneject:
      if (shard_map_.IsEjected(change.node)) {
        shard_map_.Uneject(change.node);
      }
      break;
    case ConfigChangeKind::kSetWeight:
      selector_.SetWeight(change.node, change.weight);
      break;
  }
}

uint64_t KvService::BeginTrace(SimTime now) {
  if (recorder_ == nullptr || !recorder_->request_spans()) {
    return 0;
  }
  const uint64_t id = recorder_->NextRequestId();
  recorder_->RequestEnqueue(now, trace_comp_, id, -1,
                            static_cast<double>(ops_.live()));
  return id;
}

OpTable::Id KvService::BeginOp(uint64_t key, bool is_read, uint64_t tag) {
  const SimTime t0 = sim_.Now();
  if (is_read) {
    ++reads_;
  } else {
    ++writes_;
  }
  slo_.RecordArrival();
  if (params_.retry.enabled) {
    retry_.OnArrival();
  }
  const OpTable::Id id = ops_.Allocate();
  const uint32_t slot = OpTable::RawSlot(id);
  ops_.key[slot] = key;
  ops_.t0[slot] = t0;
  ops_.trace_id[slot] = BeginTrace(t0);
  ops_.tag[slot] = tag;
  ops_.flags[slot] = is_read ? OpTable::kIsRead : 0;
  if (!is_read) {
    ops_.version[slot] = next_version_++;
  }
  return id;
}

void KvService::FinishOp(OpTable::Id id, int node) {
  const bool ok = node >= 0;
  const uint32_t slot = OpTable::RawSlot(id);
  // A hedged read that succeeds launches nothing more.
  if (ops_.fanout[slot].launched < ops_.fanout[slot].limit) {
    sim_.Cancel(ops_.timer[slot]);
  }
  const SimTime now = sim_.Now();
  const SimTime t0 = ops_.t0[slot];
  const uint64_t trace_id = ops_.trace_id[slot];
  const int attempts = std::max<int>(ops_.attempts[slot], 1);
  // SLO accounting happens here, at completion, so a telemetry tick or a
  // goodput probe reading the tracker mid-run sees every finished op; the
  // ring carries only what the front end tallies. The shed counter is
  // service state and stays inline too.
  CompletionRecord rec;
  rec.tag = ops_.tag[slot];
  if (ok) {
    rec.outcome = SloOutcome::kAck;
    slo_.RecordAck(now - t0, attempts);
  } else if ((ops_.flags[slot] & OpTable::kAdmittedAny) == 0) {
    rec.outcome = SloOutcome::kShed;
    ++sheds_;
    slo_.RecordShed(attempts);
  } else {
    rec.outcome = SloOutcome::kError;
    slo_.RecordError(attempts);
  }
  for (const uint64_t v :
       {ops_.key[slot], static_cast<uint64_t>(t0.nanos()),
        static_cast<uint64_t>(now.nanos()),
        static_cast<uint64_t>(rec.outcome), static_cast<uint64_t>(attempts),
        static_cast<uint64_t>(int64_t{node})}) {
    outcome_digest_ = (outcome_digest_ ^ v) * 1099511628211ull;
  }
  ops_.Free(id);
  completions_.Append(rec);
  if (recorder_ != nullptr && trace_id != 0) {
    recorder_->RequestComplete(now, trace_comp_, trace_id, -1, Duration::Zero(),
                               now - t0);
  }
  // Last: the callback may issue new ops.
  if (idle_ && ops_.live() == 0) {
    std::exchange(idle_, nullptr)();
  }
}

void KvService::WhenIdle(std::function<void()> idle) {
  if (ops_.live() == 0) {
    idle();
    return;
  }
  idle_ = std::move(idle);
}

const std::vector<CompletionRecord>& KvService::DrainCompletions() {
  completions_.SwapDrain(drained_);
  return drained_;
}

void KvService::AttemptFailed(OpTable::Id id) {
  const uint32_t slot = OpTable::RawSlot(id);
  const RetryPolicy::Decision d =
      retry_.Consider(ops_.attempts[slot], sim_.Now() - ops_.t0[slot]);
  if (!d.retry) {
    FinishOp(id, -1);
    return;
  }
  // The op has no other outstanding continuation once an attempt fails, so
  // the backoff timer is the sole owner: the slot is guaranteed live when
  // it fires.
  sim_.Schedule(d.backoff, [this, id] { StartAttempt(id); });
}

bool KvService::IsMiss(int node, uint64_t key) const {
  if (!data_plane()) {
    return false;
  }
  if (acked_.find(key) == acked_.end()) {
    return false;  // never-acked key: the read carries no durable content
  }
  const auto& s = store_[static_cast<size_t>(node)];
  return s.find(key) == s.end();
}

void KvService::Dispatch(double work, const AttemptCtx& ctx) {
  // Outstanding already includes this op's admission slot; the registry is
  // charged the expected time for the whole admitted backlog, so queueing
  // at a healthy node does not read as a stutter.
  const int node = ctx.node;
  const double backlog_units =
      work * static_cast<double>(std::max(admission_.outstanding(node), 1));
  // The whole request -> compute -> response chain captures only PODs
  // (~80 bytes), so every stage lives inside the InlineFunction buffer:
  // no heap allocation per request.
  NetMessage request;
  request.src = client_port_;
  request.dst = node;
  request.bytes = params_.request_bytes;
  request.done = [this, work, backlog_units, ctx](SimTime) {
    nodes_[static_cast<size_t>(ctx.node)]->Compute(
        work, [this, backlog_units, ctx](const IoResult& computed) {
          NetMessage response;
          response.src = ctx.node;
          response.dst = client_port_;
          response.bytes = params_.response_bytes;
          const bool ok = computed.ok;
          response.done = [this, backlog_units, ok, ctx](SimTime) {
            admission_.Release(ctx.node);
            const SimTime now = sim_.Now();
            if (ok) {
              registry_.Observe(channels_[static_cast<size_t>(ctx.node)], now,
                                backlog_units, now - ctx.t0);
              if (live_ != nullptr) {
                // Same backlog normalization as the registry, so the live
                // plane and the detectors argue over the same quantity.
                live_->ObserveNode(ctx.node, now, backlog_units, now - ctx.t0);
              }
            } else {
              registry_.ObserveFailure(channels_[static_cast<size_t>(ctx.node)],
                                       now);
            }
            OnAttemptComplete(ctx, ok);
          };
          switch_->Send(std::move(response));
        });
  };
  switch_->Send(std::move(request));
}

bool KvService::StoreVersion(const AttemptCtx& ctx) {
  if (nodes_[static_cast<size_t>(ctx.node)]->has_failed()) {
    return false;
  }
  auto& stored = store_[static_cast<size_t>(ctx.node)][ctx.key];
  if (ctx.version > stored) {
    stored = ctx.version;
  }
  return true;
}

void KvService::OnAttemptComplete(const AttemptCtx& ctx, bool ok) {
  // Side effects every answer owes, stale or not.
  switch (ctx.kind) {
    case kCtxRead:
      if (ok && IsMiss(ctx.node, ctx.key)) {
        // The node is healthy but does not hold the key (fresh ring
        // successor after a crash): a failed answer that does not blame
        // the node's performance state.
        ++read_misses_;
        ok = false;
      }
      break;
    case kCtxWrite:
      if (data_plane() && ok) {
        StoreVersion(ctx);
      }
      break;
    case kCtxRepair:
      if (ok && StoreVersion(ctx)) {
        ++keys_repaired_;
      }
      return;
  }
  // Quorum accounting only for the live op's current attempt. Once an op
  // succeeds its row is freed, so every later answer lands here.
  const int64_t s = ops_.SlotOf(ctx.op_id);
  if (s < 0 || ops_.attempts[static_cast<size_t>(s)] != ctx.attempt_no) {
    if (ctx.hedged != 0) {
      ++hedge_stats_.wasted_completions;
    }
    return;
  }
  Tally(ctx, ok);
}

void KvService::Tally(const AttemptCtx& ctx, bool ok) {
  const uint32_t slot = OpTable::RawSlot(ctx.op_id);
  OpTable::Fanout& f = ops_.fanout[slot];
  ++f.answered;
  if (ok && ++f.ok >= f.quorum) {
    if (ctx.kind == kCtxWrite) {
      if (data_plane()) {
        auto& v = acked_[ctx.key];
        if (ctx.version > v) {
          v = ctx.version;
          if (params_.recovery.enabled) {
            repair_due_.insert(ctx.key);
          }
        }
      }
    } else if (IsNmrRead(ctx.key)) {
      ++nmr_acks_;
    } else if (ctx.hedged != 0 && ctx.secondary != 0) {
      ++hedge_stats_.hedge_wins;
    }
    FinishOp(ctx.op_id, ctx.node);
  } else if (f.launched < f.limit) {
    // A hedged read fails over at once instead of waiting out the delay.
    sim_.Cancel(ops_.timer[slot]);
    Launch(ctx.op_id, ctx.t0);
  } else if (f.answered == f.launched) {
    // Every launch has answered and the quorum is out of reach.
    AttemptFailed(ctx.op_id);
  }
}

void KvService::GetTagged(uint64_t key, uint64_t tag) {
  StartAttempt(BeginOp(key, /*is_read=*/true, tag));
}

void KvService::PutTagged(uint64_t key, uint64_t tag) {
  StartAttempt(BeginOp(key, /*is_read=*/false, tag));
}

void KvService::StartAttempt(OpTable::Id id) {
  const uint32_t slot = OpTable::RawSlot(id);
  const bool read = (ops_.flags[slot] & OpTable::kIsRead) != 0;
  AttemptCtx ctx;
  ctx.op_id = id;
  ctx.key = ops_.key[slot];
  ctx.version = ops_.version[slot];
  ctx.t0 = sim_.Now();
  ctx.attempt_no = ++ops_.attempts[slot];
  ctx.kind = read ? kCtxRead : kCtxWrite;
  ops_.fanout[slot] = OpTable::Fanout{};

  // The fan-out spec (see the table in cluster.h).
  shard_map_.ReplicasFor(ctx.key, replicas_scratch_);
  const std::vector<int>* cands = &replicas_scratch_;  // a write: ring order
  size_t issue = replicas_scratch_.size();
  int quorum = params_.write_quorum;
  const bool nmr = read && IsNmrRead(ctx.key);
  if (read) {
    selector_.RankInto(replicas_scratch_, depth_fn_, ranked_scratch_);
    cands = &ranked_scratch_;
    issue = nmr ? static_cast<size_t>(params_.nmr.issue) : 1;
    quorum = nmr ? params_.nmr.quorum : 1;
  }
  if (cands->empty()) {
    AttemptFailed(id);
    return;
  }
  if (read && !nmr && params_.hedge_reads && cands->size() > 1) {
    const size_t n = std::min(cands->size(), ops_.cand_width());
    std::copy_n(cands->begin(), n, ops_.cands_of(slot));
    ops_.fanout[slot].limit = static_cast<int16_t>(n);
    ops_.fanout[slot].quorum = 1;
    ++hedge_stats_.operations;
    Launch(id, ctx.t0);
    return;
  }
  int16_t issued = 0;
  for (size_t i = 0; i < cands->size() && static_cast<size_t>(issued) < issue;
       ++i) {
    ctx.node = (*cands)[i];
    if (!admission_.TryAdmit(ctx.node)) {
      continue;
    }
    ++issued;
    Dispatch(read ? params_.read_work : params_.write_work, ctx);
  }
  if (issued == 0) {
    AttemptFailed(id);
    return;
  }
  // Answers are all scheduled events, so none can observe these stores
  // early. The quorum never exceeds what a read actually issued, or the op
  // would wait for answers that cannot arrive.
  ops_.flags[slot] |= OpTable::kAdmittedAny;
  OpTable::Fanout& f = ops_.fanout[slot];
  f.launched = issued;
  f.limit = issued;
  f.quorum = static_cast<int16_t>(std::clamp(
      quorum, 1, read ? static_cast<int>(issued)
                      : static_cast<int>(cands->size())));
  if (nmr) {
    ++nmr_reads_;
  }
}

void KvService::Launch(OpTable::Id id, SimTime t0) {
  const uint32_t slot = OpTable::RawSlot(id);
  const int16_t index = ops_.fanout[slot].launched++;
  if (index > 0) {
    ++hedge_stats_.hedges_launched;
  }
  // Arm the next launch before this one is sent: it may fail at once.
  // Success and failover cancel it, so the op is live when it fires.
  if (index + 1 < ops_.fanout[slot].limit) {
    ops_.timer[slot] = sim_.Schedule(params_.hedge.hedge_delay,
                                     [this, id, t0] { Launch(id, t0); });
  }
  AttemptCtx ctx;
  ctx.op_id = id;
  ctx.key = ops_.key[slot];
  ctx.t0 = t0;
  ctx.attempt_no = ops_.attempts[slot];
  ctx.node = ops_.cands_of(slot)[index];
  ctx.kind = kCtxRead;
  ctx.secondary = index > 0 ? 1 : 0;
  ctx.hedged = 1;
  if (!admission_.TryAdmit(ctx.node)) {
    Tally(ctx, false);
    return;
  }
  ops_.flags[slot] |= OpTable::kAdmittedAny;
  Dispatch(params_.read_work, ctx);
}

// -- Crash-recovery lifecycle --

void KvService::ArmCrashHandler(int node) {
  if (crash_handler_armed_[static_cast<size_t>(node)]) {
    return;
  }
  crash_handler_armed_[static_cast<size_t>(node)] = true;
  nodes_[static_cast<size_t>(node)]->OnFailure([this, node] {
    crash_handler_armed_[static_cast<size_t>(node)] = false;
    OnNodeCrash(node);
  });
}

void KvService::StartTelemetry(SimTime until) {
  if (live_ == nullptr) {
    return;
  }
  telemetry_until_ = until;
  sim_.Schedule(live_->window(), [this] { TelemetryTick(); });
}

void KvService::TelemetryTick() {
  const SimTime now = sim_.Now();
  OutcomeCounts counts;
  counts.good = slo_.goodput();
  counts.bad = slo_.late() + slo_.shed() + slo_.errors();
  live_->Tick(now, counts);
  if (now < telemetry_until_) {
    sim_.Schedule(live_->window(), [this] { TelemetryTick(); });
  }
}

void KvService::OnNodeCrash(int node) {
  ++crashes_;
  // Invalidate any in-flight weight ramp; the node is gone again.
  ++ramp_gen_[static_cast<size_t>(node)];
  store_[static_cast<size_t>(node)].clear();
  repair_rescan_ = true;  // any acked key may have lost this copy
  // Detection (eject + handoff) happens through the normal observation
  // paths: in-flight requests fail (ObserveFailure) or the heartbeat
  // timeout fires — the service has no oracle into device state.
}

void KvService::StartRecovery(SimTime until) {
  if (!params_.recovery.enabled) {
    return;
  }
  recovery_until_ = until;
  const SimTime now = sim_.Now();
  // Seed every node's liveness clock so a late start is not mistaken for a
  // fleet-wide crash on the first tick.
  for (const auto& node : nodes_) {
    registry_.RecordLiveness(node->name(), now);
  }
  sim_.Schedule(params_.recovery.heartbeat_every,
                [this] { HeartbeatTick(); });
}

void KvService::HeartbeatTick() {
  const SimTime now = sim_.Now();
  for (int i = 0; i < params_.nodes; ++i) {
    // Management-plane probe: straight to the node, bypassing admission (a
    // saturated node must still prove liveness). A probe on a crashed node
    // fails synchronously and proves nothing.
    nodes_[static_cast<size_t>(i)]->Compute(
        params_.recovery.heartbeat_work, [this, i](const IoResult& r) {
          if (!r.ok) {
            return;
          }
          const std::string& name = nodes_[static_cast<size_t>(i)]->name();
          registry_.RecordLiveness(name, sim_.Now());
          if (registry_.StateOf(name) == PerfState::kFailed) {
            RecoverNode(i);
          }
        });
  }
  registry_.CheckLiveness(now, params_.recovery.liveness_timeout);
  KickRepair();
  if (now + params_.recovery.heartbeat_every <= recovery_until_) {
    sim_.Schedule(params_.recovery.heartbeat_every,
                  [this] { HeartbeatTick(); });
  }
}

void KvService::RecoverNode(int node) {
  ++recoveries_;
  const SimTime now = sim_.Now();
  registry_.MarkRecovered(nodes_[static_cast<size_t>(node)]->name(), now);
  // Unconditional submit: under a routed control plane the eject this
  // undoes may itself still be in flight, so the decision can't hinge on
  // the local (possibly stale) map — ApplyControl re-checks membership.
  SubmitControl({ConfigChangeKind::kUneject, node, 0.0});
  ArmCrashHandler(node);  // re-arm for the next crash (flapping)
  BeginWeightRamp(node);
  KickRepair();
}

void KvService::BeginWeightRamp(int node) {
  const uint64_t gen = ++ramp_gen_[static_cast<size_t>(node)];
  const RecoveryParams& rp = params_.recovery;
  const int steps = std::max(1, rp.ramp_steps);
  const double w0 = std::clamp(rp.ramp_initial, 0.0, 1.0);
  SubmitControl({ConfigChangeKind::kSetWeight, node, w0});
  for (int k = 1; k <= steps; ++k) {
    const double frac = static_cast<double>(k) / static_cast<double>(steps);
    // Final step pinned to exactly 1.0 (float addition may land epsilon off).
    const double w = k == steps ? 1.0 : w0 + (1.0 - w0) * frac;
    sim_.Schedule(rp.ramp_duration * frac, [this, node, gen, w] {
      if (ramp_gen_[static_cast<size_t>(node)] != gen) {
        return;  // the node crashed again; this ramp is stale
      }
      SubmitControl({ConfigChangeKind::kSetWeight, node, w});
    });
  }
}

void KvService::KickRepair() {
  if (!params_.recovery.enabled || repair_active_) {
    return;
  }
  if (params_.recovery.repair_keys_per_sec <= 0.0 || acked_.empty()) {
    return;
  }
  repair_active_ = true;
  sim_.Schedule(Duration::Seconds(1.0 / params_.recovery.repair_keys_per_sec),
                [this] { RepairStep(); });
}

void KvService::RepairStep() {
  const Duration interval =
      Duration::Seconds(1.0 / params_.recovery.repair_keys_per_sec);
  if (repair_rescan_ || repair_epoch_ != shard_map_.epoch()) {
    // A wiped store or a moved replica set can leave any acked key short
    // of a copy: every acked key is due again.
    repair_rescan_ = false;
    repair_epoch_ = shard_map_.epoch();
    repair_due_.clear();
    for (const auto& entry : acked_) {
      repair_due_.emplace_hint(repair_due_.end(), entry.first);
    }
  }
  // Due keys in key order from the cursor, wrapping, each at most once.
  // Keys outside the set have no target, so the first key acted on is the
  // one a scan of the whole ledger would pick.
  auto it = repair_due_.lower_bound(repair_cursor_);
  const size_t n = repair_due_.size();
  for (size_t visited = 0; visited < n; ++visited) {
    if (it == repair_due_.end()) {
      it = repair_due_.begin();
    }
    const uint64_t key = *it;
    const uint64_t ver = acked_.find(key)->second;
    shard_map_.ReplicasFor(key, replicas_scratch_);
    int target = -1;
    bool complete = true;  // every replica, up or down, holds `ver`
    for (int r : replicas_scratch_) {
      const auto& s = store_[static_cast<size_t>(r)];
      const auto f = s.find(key);
      if (f != s.end() && f->second >= ver) {
        continue;
      }
      complete = false;
      if (!nodes_[static_cast<size_t>(r)]->has_failed()) {
        target = r;
        break;
      }
    }
    if (target >= 0) {
      bool have_source = false;
      for (int src = 0; src < params_.nodes && !have_source; ++src) {
        if (src == target ||
            nodes_[static_cast<size_t>(src)]->has_failed()) {
          continue;
        }
        const auto& s = store_[static_cast<size_t>(src)];
        const auto f = s.find(key);
        have_source = f != s.end() && f->second >= ver;
      }
      if (have_source) {
        if (!admission_.TryAdmit(target)) {
          // Target saturated: hold the cursor, try again next interval —
          // this is exactly the "tunable repair bandwidth yields to
          // foreground traffic" behavior.
          repair_cursor_ = key;
          sim_.Schedule(interval, [this] { RepairStep(); });
          return;
        }
        repair_cursor_ = key + 1;
        const double work =
            params_.write_work * params_.recovery.repair_work_factor;
        AttemptCtx ctx;
        ctx.key = key;
        ctx.version = ver;
        ctx.t0 = sim_.Now();
        ctx.node = target;
        ctx.kind = kCtxRepair;
        Dispatch(work, ctx);
        sim_.Schedule(interval, [this] { RepairStep(); });
        return;
      }
    } else if (complete) {
      it = repair_due_.erase(it);
      continue;
    }
    ++it;
  }
  // Nothing due could be repaired: go idle until the next kick.
  repair_active_ = false;
}

// -- Invariant probes --

int64_t KvService::lost_acked_writes() const {
  int64_t lost = 0;
  for (const auto& [key, ver] : acked_) {
    bool safe = false;
    for (int node = 0; node < params_.nodes && !safe; ++node) {
      if (nodes_[static_cast<size_t>(node)]->has_failed()) {
        continue;
      }
      const auto& s = store_[static_cast<size_t>(node)];
      const auto f = s.find(key);
      safe = f != s.end() && f->second >= ver;
    }
    if (!safe) {
      ++lost;
    }
  }
  return lost;
}

int64_t KvService::under_replicated_keys() const {
  int64_t under = 0;
  std::vector<int> replicas;  // refilled per key, allocated once
  for (const auto& [key, ver] : acked_) {
    shard_map_.ReplicasFor(key, replicas);
    int copies = 0;
    for (int r : replicas) {
      if (nodes_[static_cast<size_t>(r)]->has_failed()) {
        continue;
      }
      const auto& s = store_[static_cast<size_t>(r)];
      const auto f = s.find(key);
      if (f != s.end() && f->second >= ver) {
        ++copies;
      }
    }
    if (copies < static_cast<int>(replicas.size())) {
      ++under;
    }
  }
  return under;
}

}  // namespace fst

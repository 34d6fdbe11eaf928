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
  if (params.nmr.enabled &&
      (params.nmr.quorum < 1 || params.nmr.quorum > params.nmr.issue)) {
    throw std::invalid_argument("NmrParams.quorum must be in [1, issue]");
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
      hedge_(sim, params_.hedge), slo_(params_.slo_deadline),
      // The retry stream is forked only when retries are on, so configs
      // without them draw exactly the same RNG sequence as before the
      // retry layer existed.
      retry_(params_.retry,
             params_.retry.enabled ? sim.rng().Fork() : Rng(0)),
      client_port_(params_.nodes) {
  params_.net.ports = std::max(params_.net.ports, params_.nodes + 1);
  switch_ = std::make_unique<Switch>(sim_, params_.net, nullptr, recorder_);
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
        SubmitControl({ControlCommand::Kind::kSetWeight, idx, 1.0});
        SubmitControl({ControlCommand::Kind::kUneject, idx, 0.0});
      }
      break;
    case ReactionKind::kReweight:
      ++reweights_;
      SubmitControl({ControlCommand::Kind::kSetWeight, idx, reaction.share});
      if (reaction.share > 0.0) {
        SubmitControl({ControlCommand::Kind::kUneject, idx, 0.0});
      }
      break;
    case ReactionKind::kEject:
      ++ejections_;
      SubmitControl({ControlCommand::Kind::kEject, idx, 0.0});
      break;
  }
  if (recorder_ != nullptr && recorder_->enabled()) {
    recorder_->PolicyAction(change.when, trace_comp_,
                            static_cast<uint16_t>(reaction.kind),
                            reaction.share);
  }
}

void KvService::SubmitControl(const ControlCommand& cmd) {
  if (control_route_ && control_route_(cmd)) {
    return;  // claimed: the route applies it back once committed
  }
  ApplyControl(cmd);
}

void KvService::ApplyControl(const ControlCommand& cmd) {
  switch (cmd.kind) {
    case ControlCommand::Kind::kEject:
      selector_.SetWeight(cmd.node, 0.0);
      shard_map_.Eject(cmd.node);
      break;
    case ControlCommand::Kind::kUneject:
      if (shard_map_.IsEjected(cmd.node)) {
        shard_map_.Uneject(cmd.node);
      }
      break;
    case ControlCommand::Kind::kSetWeight:
      selector_.SetWeight(cmd.node, cmd.weight);
      break;
  }
}

uint64_t KvService::BeginTrace(SimTime now) {
  if (recorder_ == nullptr || !recorder_->request_spans()) {
    return 0;
  }
  const uint64_t id = recorder_->NextRequestId();
  recorder_->RequestEnqueue(now, trace_comp_, id, -1,
                            static_cast<double>(in_flight_));
  return id;
}

OpTable::Id KvService::BeginOp(uint64_t key, bool is_read, uint64_t tag) {
  const SimTime t0 = sim_.Now();
  if (is_read) {
    ++reads_;
  } else {
    ++writes_;
  }
  ++in_flight_;
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

void KvService::FinishOp(OpTable::Id id, bool ok) {
  const uint32_t slot = OpTable::RawSlot(id);
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
        static_cast<uint64_t>(rec.outcome), static_cast<uint64_t>(attempts)}) {
    outcome_digest_ = (outcome_digest_ ^ v) * 1099511628211ull;
  }
  ops_.Free(id);
  --in_flight_;
  completions_.Append(rec);
  if (recorder_ != nullptr && trace_id != 0) {
    // Coalesced delivery extends to tracing: the row is staged and rides
    // the next drain's bulk append instead of paying a ring cursor
    // round-trip per completion.
    trace_scratch_.push_back(
        TraceEvent{now, EventKind::kRequestComplete, trace_comp_, 0, -1,
                   trace_id, 0.0, static_cast<double>((now - t0).nanos())});
  }
}

const std::vector<CompletionRecord>& KvService::DrainCompletions() {
  if (!trace_scratch_.empty()) {
    recorder_->RecordN(trace_scratch_.data(), trace_scratch_.size());
    trace_scratch_.clear();
  }
  completions_.SwapDrain(drained_);
  return drained_;
}

void KvService::AttemptFailed(OpTable::Id id, bool admitted_this_attempt) {
  const uint32_t slot = OpTable::RawSlot(id);
  if (admitted_this_attempt) {
    ops_.flags[slot] |= OpTable::kAdmittedAny;
  }
  const RetryPolicy::Decision d =
      retry_.Consider(ops_.attempts[slot], sim_.Now() - ops_.t0[slot]);
  if (!d.retry) {
    FinishOp(id, false);
    return;
  }
  // The op has no other outstanding continuation once an attempt fails, so
  // the backoff timer is the sole owner: the slot is guaranteed live when
  // it fires.
  sim_.Schedule(d.backoff, [this, id] {
    if ((ops_.flags[OpTable::RawSlot(id)] & OpTable::kIsRead) != 0) {
      StartReadAttempt(id);
    } else {
      StartWriteAttempt(id);
    }
  });
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

void KvService::Dispatch(double work, SimTime t0, const AttemptCtx& ctx) {
  // Outstanding already includes this op's admission slot; the registry is
  // charged the expected time for the whole admitted backlog, so queueing
  // at a healthy node does not read as a stutter.
  const int node = ctx.node;
  const double backlog_units =
      work * static_cast<double>(std::max(admission_.outstanding(node), 1));
  // The whole request -> compute -> response chain captures only PODs
  // (~80 bytes), so every stage lives inside the InlineFunction buffer:
  // no heap allocation per attempt.
  NetMessage request;
  request.src = client_port_;
  request.dst = node;
  request.bytes = params_.request_bytes;
  request.done = [this, work, backlog_units, t0, ctx](SimTime) {
    nodes_[static_cast<size_t>(ctx.node)]->Compute(
        work,
        [this, backlog_units, t0, ctx](const IoResult& computed) {
          NetMessage response;
          response.src = ctx.node;
          response.dst = client_port_;
          response.bytes = params_.response_bytes;
          const bool ok = computed.ok;
          response.done = [this, backlog_units, t0, ok, ctx](SimTime) {
            admission_.Release(ctx.node);
            const SimTime now = sim_.Now();
            if (ok) {
              registry_.Observe(channels_[static_cast<size_t>(ctx.node)], now,
                                backlog_units, now - t0);
              if (live_ != nullptr) {
                // Same backlog normalization as the registry, so the live
                // plane and the detectors argue over the same quantity.
                live_->ObserveNode(ctx.node, now, backlog_units, now - t0);
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

void KvService::DispatchCb(int node, double work, SimTime t0, IoCallback cb) {
  const double backlog_units =
      work * static_cast<double>(std::max(admission_.outstanding(node), 1));
  NetMessage request;
  request.src = client_port_;
  request.dst = node;
  request.bytes = params_.request_bytes;
  request.done = [this, node, work, backlog_units, t0,
                  cb = std::move(cb)](SimTime) mutable {
    nodes_[static_cast<size_t>(node)]->Compute(
        work, [this, node, backlog_units, t0,
               cb = std::move(cb)](const IoResult& computed) mutable {
          NetMessage response;
          response.src = node;
          response.dst = client_port_;
          response.bytes = params_.response_bytes;
          const bool ok = computed.ok;
          response.done = [this, node, backlog_units, t0, ok,
                           cb = std::move(cb)](SimTime) mutable {
            admission_.Release(node);
            const SimTime now = sim_.Now();
            if (ok) {
              registry_.Observe(channels_[static_cast<size_t>(node)], now,
                                backlog_units, now - t0);
              if (live_ != nullptr) {
                live_->ObserveNode(node, now, backlog_units, now - t0);
              }
            } else {
              registry_.ObserveFailure(channels_[static_cast<size_t>(node)],
                                       now);
            }
            if (cb) {
              IoResult r;
              r.ok = ok;
              r.issued = t0;
              r.completed = now;
              cb(r);
            }
          };
          switch_->Send(std::move(response));
        });
  };
  switch_->Send(std::move(request));
}

void KvService::OnAttemptComplete(const AttemptCtx& ctx, bool ok) {
  switch (ctx.kind) {
    case kCtxRead: {
      bool read_ok = ok;
      if (read_ok && IsMiss(ctx.node, ctx.key)) {
        // The node is healthy but does not hold the key (fresh ring
        // successor after a crash): fail the attempt over without blaming
        // the node's performance state.
        ++read_misses_;
        read_ok = false;
      }
      // A non-hedged read has exactly one outstanding continuation — this
      // one — so the op is guaranteed live here.
      if (read_ok) {
        FinishOp(ctx.op_id, true);
      } else {
        AttemptFailed(ctx.op_id, true);
      }
      return;
    }
    case kCtxWrite: {
      // Side effects every completion owes regardless of op liveness: the
      // mirror backlog gauge and the store install both act purely on
      // captured values (a completion racing a crash must not resurrect
      // data the crash wiped, hence the has_failed() guard).
      if (ctx.mirror != 0) {
        --mirror_backlog_;
      }
      if (data_plane() && ok &&
          !nodes_[static_cast<size_t>(ctx.node)]->has_failed()) {
        auto& slot_ver = store_[static_cast<size_t>(ctx.node)][ctx.key];
        if (ctx.version > slot_ver) {
          slot_ver = ctx.version;
        }
      }
      // Quorum bookkeeping only if the op is still live *and* these
      // results belong to its current attempt; stale completions were
      // already inert under the legacy shared-state scheme.
      const int64_t s = ops_.SlotOf(ctx.op_id);
      if (s < 0) {
        return;
      }
      const auto slot = static_cast<size_t>(s);
      if (ops_.attempts[slot] != ctx.attempt_no) {
        return;
      }
      ++ops_.wa_completed[slot];
      if (ok) {
        ++ops_.wa_ok[slot];
      }
      const bool reported = (ops_.flags[slot] & OpTable::kWaReported) != 0;
      if (!reported && ops_.wa_ok[slot] >= ops_.wa_quorum[slot]) {
        ops_.flags[slot] |= OpTable::kWaReported;
        if (data_plane()) {
          auto& v = acked_[ctx.key];
          if (ctx.version > v) {
            v = ctx.version;
            if (params_.recovery.enabled) {
              repair_due_.insert(ctx.key);
            }
          }
        }
        FinishOp(ctx.op_id, true);
      } else if (!reported &&
                 ops_.wa_completed[slot] == ops_.wa_dispatched[slot]) {
        // Every admitted replica has answered and quorum is unreachable.
        ops_.flags[slot] |= OpTable::kWaReported;
        AttemptFailed(ctx.op_id, true);
      }
      return;
    }
    case kCtxRepair: {
      if (ok && !nodes_[static_cast<size_t>(ctx.node)]->has_failed()) {
        auto& slot_ver = store_[static_cast<size_t>(ctx.node)][ctx.key];
        if (ctx.version > slot_ver) {
          slot_ver = ctx.version;
        }
        ++keys_repaired_;
      }
      return;
    }
    case kCtxNmrRead: {
      // Per-replica miss handling first (a healthy node without the key is
      // a failed vote, not a failed node), then write-style quorum
      // accounting: the op acks at the quorum-th agreeing success and
      // fails over only when every issued replica has answered.
      bool read_ok = ok;
      if (read_ok && IsMiss(ctx.node, ctx.key)) {
        ++read_misses_;
        read_ok = false;
      }
      const int64_t s = ops_.SlotOf(ctx.op_id);
      if (s < 0) {
        return;  // op already reported and was freed: stale vote
      }
      const auto slot = static_cast<size_t>(s);
      if (ops_.attempts[slot] != ctx.attempt_no) {
        return;
      }
      ++ops_.wa_completed[slot];
      if (read_ok) {
        ++ops_.wa_ok[slot];
      }
      const bool reported = (ops_.flags[slot] & OpTable::kWaReported) != 0;
      if (!reported && ops_.wa_ok[slot] >= ops_.wa_quorum[slot]) {
        ops_.flags[slot] |= OpTable::kWaReported;
        ++nmr_acks_;
        FinishOp(ctx.op_id, true);
      } else if (!reported &&
                 ops_.wa_completed[slot] == ops_.wa_dispatched[slot]) {
        ops_.flags[slot] |= OpTable::kWaReported;
        AttemptFailed(ctx.op_id, true);
      }
      return;
    }
  }
}

void KvService::GetTagged(uint64_t key, uint64_t tag) {
  StartReadAttempt(BeginOp(key, /*is_read=*/true, tag));
}

void KvService::StartReadAttempt(OpTable::Id id) {
  const uint32_t slot = OpTable::RawSlot(id);
  ++ops_.attempts[slot];
  const SimTime attempt_start = sim_.Now();
  const uint64_t key = ops_.key[slot];
  shard_map_.ReplicasFor(key, replicas_scratch_);
  selector_.RankInto(replicas_scratch_, depth_fn_, ranked_scratch_);
  if (ranked_scratch_.empty()) {
    AttemptFailed(id, false);
    return;
  }
  if (params_.nmr.enabled) {
    const uint64_t stride =
        params_.nmr.key_stride == 0 ? 1 : params_.nmr.key_stride;
    if (key % stride == 0) {
      if (!StartNmrFanout(id)) {
        AttemptFailed(id, false);
      }
      return;
    }
  }
  if (params_.hedge_reads && ranked_scratch_.size() > 1) {
    IssueHedged(ranked_scratch_, id);
    return;
  }
  for (int node : ranked_scratch_) {
    if (!admission_.TryAdmit(node)) {
      continue;
    }
    AttemptCtx ctx;
    ctx.op_id = id;
    ctx.key = key;
    ctx.node = node;
    ctx.kind = kCtxRead;
    Dispatch(params_.read_work, attempt_start, ctx);
    return;
  }
  AttemptFailed(id, false);
}

bool KvService::StartNmrFanout(OpTable::Id id) {
  // Caller (StartReadAttempt) has already bumped the attempt counter and
  // filled ranked_scratch_ with the admissible ranking for this key.
  const uint32_t slot = OpTable::RawSlot(id);
  const int32_t attempt_no = ops_.attempts[slot];
  const SimTime attempt_start = sim_.Now();
  const uint64_t key = ops_.key[slot];
  ops_.wa_dispatched[slot] = 0;
  ops_.wa_completed[slot] = 0;
  ops_.wa_ok[slot] = 0;
  ops_.flags[slot] &= static_cast<uint8_t>(~OpTable::kWaReported);
  const int want = std::max(1, params_.nmr.issue);
  int16_t dispatched = 0;
  for (int node : ranked_scratch_) {
    if (dispatched >= want) {
      break;
    }
    if (!admission_.TryAdmit(node)) {
      continue;
    }
    ++dispatched;
    AttemptCtx ctx;
    ctx.op_id = id;
    ctx.key = key;
    ctx.attempt_no = attempt_no;
    ctx.node = node;
    ctx.kind = kCtxNmrRead;
    Dispatch(params_.read_work, attempt_start, ctx);
  }
  if (dispatched == 0) {
    return false;
  }
  // Quorum can never exceed what was actually issued, or the op would hang
  // waiting for votes that cannot arrive. Completions are all scheduled
  // events, so none can observe these stores early.
  ops_.wa_quorum[slot] = static_cast<int16_t>(
      std::clamp(params_.nmr.quorum, 1, static_cast<int>(dispatched)));
  ops_.wa_dispatched[slot] = dispatched;
  ++nmr_reads_;
  return true;
}

void KvService::IssueHedged(const std::vector<int>& ranked, OpTable::Id id) {
  const SimTime attempt_start = sim_.Now();
  const uint64_t key = ops_.key[OpTable::RawSlot(id)];
  const int attempts_allowed = std::min(
      static_cast<int>(ranked.size()), 1 + std::max(params_.hedge.max_hedges, 0));
  std::vector<HedgedOp::Attempt> attempts;
  attempts.reserve(static_cast<size_t>(attempts_allowed));
  for (int i = 0; i < attempts_allowed; ++i) {
    const int node = ranked[static_cast<size_t>(i)];
    attempts.push_back([this, node, attempt_start, id, key](IoCallback cb) {
      if (!admission_.TryAdmit(node)) {
        IoResult r;
        r.ok = false;
        r.issued = attempt_start;
        r.completed = sim_.Now();
        cb(r);
        return;
      }
      // A hedge duplicate can launch after the op already reported (the
      // delay timer raced the primary's answer), so the flag write is
      // generation-checked.
      const int64_t s = ops_.SlotOf(id);
      if (s >= 0) {
        ops_.flags[static_cast<size_t>(s)] |= OpTable::kAdmittedAny;
      }
      DispatchCb(node, params_.read_work, attempt_start,
                 [this, node, key, cb = std::move(cb)](const IoResult& r) mutable {
                   IoResult out = r;
                   if (out.ok && IsMiss(node, key)) {
                     ++read_misses_;
                     out.ok = false;
                   }
                   cb(out);
                 });
    });
  }
  hedge_.Issue(std::move(attempts), [this, id](const IoResult& r) {
    // HedgedOp fires this exactly once, and it is the op's sole terminal
    // decision point, so the op is live here.
    if (r.ok) {
      FinishOp(id, true);
    } else {
      AttemptFailed(id, false);  // admitted_any already recorded on the op
    }
  });
}

void KvService::PutTagged(uint64_t key, uint64_t tag) {
  StartWriteAttempt(BeginOp(key, /*is_read=*/false, tag));
}

void KvService::StartWriteAttempt(OpTable::Id id) {
  const uint32_t slot = OpTable::RawSlot(id);
  const int32_t attempt_no = ++ops_.attempts[slot];
  const SimTime attempt_start = sim_.Now();
  const uint64_t key = ops_.key[slot];
  const uint64_t version = ops_.version[slot];
  shard_map_.ReplicasFor(key, replicas_scratch_);
  const std::vector<int>& replicas = replicas_scratch_;
  if (replicas.empty()) {
    AttemptFailed(id, false);
    return;
  }
  ops_.wa_dispatched[slot] = 0;
  ops_.wa_completed[slot] = 0;
  ops_.wa_ok[slot] = 0;
  ops_.wa_quorum[slot] = static_cast<int16_t>(std::clamp(
      params_.write_quorum, 1, static_cast<int>(replicas.size())));
  ops_.flags[slot] &= static_cast<uint8_t>(~OpTable::kWaReported);

  int16_t dispatched = 0;
  for (size_t i = 0; i < replicas.size(); ++i) {
    const int node = replicas[i];
    if (!admission_.TryAdmit(node)) {
      continue;
    }
    ++dispatched;
    const bool mirror = i > 0;
    if (mirror) {
      ++mirror_backlog_;
      peak_mirror_backlog_ = std::max(peak_mirror_backlog_, mirror_backlog_);
    }
    AttemptCtx ctx;
    ctx.op_id = id;
    ctx.key = key;
    ctx.version = version;
    ctx.attempt_no = attempt_no;
    ctx.node = node;
    ctx.kind = kCtxWrite;
    ctx.mirror = mirror ? 1 : 0;
    Dispatch(params_.write_work, attempt_start, ctx);
  }
  // Completions are all scheduled events, so none can observe
  // wa_dispatched before this store.
  ops_.wa_dispatched[slot] = dispatched;
  if (dispatched == 0) {
    AttemptFailed(id, false);
  }
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
  SubmitControl({ControlCommand::Kind::kUneject, node, 0.0});
  ArmCrashHandler(node);  // re-arm for the next crash (flapping)
  BeginWeightRamp(node);
  KickRepair();
}

void KvService::BeginWeightRamp(int node) {
  const uint64_t gen = ++ramp_gen_[static_cast<size_t>(node)];
  const RecoveryParams& rp = params_.recovery;
  const int steps = std::max(1, rp.ramp_steps);
  const double w0 = std::clamp(rp.ramp_initial, 0.0, 1.0);
  SubmitControl({ControlCommand::Kind::kSetWeight, node, w0});
  for (int k = 1; k <= steps; ++k) {
    const double frac = static_cast<double>(k) / static_cast<double>(steps);
    // Final step pinned to exactly 1.0 (float addition may land epsilon off).
    const double w = k == steps ? 1.0 : w0 + (1.0 - w0) * frac;
    sim_.Schedule(rp.ramp_duration * frac, [this, node, gen, w] {
      if (ramp_gen_[static_cast<size_t>(node)] != gen) {
        return;  // the node crashed again; this ramp is stale
      }
      SubmitControl({ControlCommand::Kind::kSetWeight, node, w});
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
        ctx.node = target;
        ctx.kind = kCtxRepair;
        Dispatch(work, sim_.Now(), ctx);
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

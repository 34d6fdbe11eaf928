#include "src/devices/network.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fst {

namespace {
constexpr double kMega = 1e6;
// Two-stage: send_end_ of a port whose send server is busy.
constexpr SimTime kBusy = SimTime::Max();

// A stage's service is bytes / link rate plus the overhead, cast to integer
// nanos, and a message waits for fabric space: each knob must keep that
// finite and non-negative.
void ValidateSwitchParams(const SwitchParams& p) {
  if (!(std::isfinite(p.link_mbps) && p.link_mbps > 0.0)) {
    throw std::invalid_argument(
        "SwitchParams.link_mbps must be finite and > 0");
  }
  if (p.fabric_buffer_bytes <= 0) {
    throw std::invalid_argument("SwitchParams.fabric_buffer_bytes must be > 0");
  }
  if (p.per_message_overhead.IsNegative()) {
    throw std::invalid_argument(
        "SwitchParams.per_message_overhead must be >= 0");
  }
}
}  // namespace

Switch::Switch(Simulator& sim, SwitchParams params, EventRecorder* recorder)
    : sim_(sim), params_((ValidateSwitchParams(params), params)),
      recorder_(recorder),
      send_end_(params.ports, SimTime::Zero()), send_queues_(params.ports),
      awaiting_admission_(params.ports), recv_queues_(params.ports),
      recv_event_(params.ports), recv_speed_(params.ports, 1.0),
      src_weight_(params.ports, 1.0), delivered_bytes_(params.ports, 0) {
  if (recorder_ != nullptr) {
    trace_comp_ = recorder_->Intern("switch");
  }
}

// A knob change applies to stages that start after it, which the closed
// form has already timed: in-flight messages go two-stage first.
void Switch::SetReceiverSpeed(int port, double factor) {
  if (in_flight_ > 0) {
    Materialize();
  }
  recv_speed_[port] = std::max(factor, 1e-6);
}

void Switch::SetSourceWeight(int port, double weight) {
  if (in_flight_ > 0) {
    Materialize();
  }
  src_weight_[port] = std::max(weight, 1e-6);
}

void Switch::Stall(Duration length) {
  if (in_flight_ > 0) {
    Materialize();
  }
  const SimTime end = sim_.Now() + length;
  if (end > stall_until_) {
    stall_until_ = end;
  }
  ++stalls_;
}

Duration Switch::StallRemaining() const {
  if (sim_.Now() >= stall_until_) {
    return Duration::Zero();
  }
  return stall_until_ - sim_.Now();
}

Duration Switch::SendService(const Pending& p) const {
  const double bytes = static_cast<double>(p.msg.bytes);
  return params_.per_message_overhead +
         Duration::Seconds(bytes / (params_.link_mbps * kMega)) *
             src_weight_[p.msg.src];
}

Duration Switch::ReceiveService(const Pending& p, int port) const {
  const double bytes = static_cast<double>(p.msg.bytes);
  const double rate = params_.link_mbps * kMega * recv_speed_[port];
  return params_.per_message_overhead + Duration::Seconds(bytes / rate);
}

// The two-stage model ends the send in an event keyed (end, start): it has
// fired iff that key orders before the firing event's. An equal key counts
// as not yet fired.
bool Switch::SendDone(SimTime start, SimTime end) const {
  const SimTime now = sim_.Now();
  return end < now || (end == now && start < sim_.NowSched());
}

int64_t Switch::total_delivered_bytes() const {
  int64_t total = 0;
  for (int64_t b : delivered_bytes_) {
    total += b;
  }
  return total;
}

int64_t Switch::fabric_occupancy() const {
  if (two_stage_) {
    return fabric_occupancy_;
  }
  // Each destination's admitted messages are a prefix of its queue.
  int64_t bytes = 0;
  for (const PendingRing& q : recv_queues_) {
    for (size_t i = 0; i < q.size() && SendDone(q[i].start, q[i].admitted);
         ++i) {
      bytes += q[i].msg.bytes;
    }
  }
  return bytes;
}

void Switch::Send(NetMessage msg) {
  const int src = msg.src;
  const int dst = msg.dst;
  const SimTime now = sim_.Now();
  ++in_flight_;
  in_flight_bytes_ += msg.bytes;
  uint64_t trace_id = 0;
  if (recorder_ != nullptr && recorder_->request_spans()) {
    trace_id = recorder_->NextRequestId();
    recorder_->RequestEnqueue(now, trace_comp_, trace_id, src,
                              static_cast<double>(in_flight_));
  }
  Pending p{std::move(msg), now, now, now, trace_id, next_serial_++, false};
  if (!two_stage_) {
    // Send start, send end, as the two-stage servers would time them.
    const SimTime last_end = send_end_[src];
    p.fresh = last_end < now;
    p.start = std::max(now, last_end);
    p.admitted = std::max(p.start, stall_until_) + SendService(p);
    // Exact while the destination admits messages in Send order (on a
    // tied send end, the two-stage model admits the earlier-started send
    // first, and two sends started fresh at one instant in Send order)
    // and no admission can fail.
    PendingRing& q = recv_queues_[dst];
    bool in_order = true;
    if (!q.empty()) {
      const Pending& tail = q.back();
      in_order = tail.admitted < p.admitted ||
                 (tail.admitted == p.admitted &&
                  (tail.start < p.start ||
                   (tail.start == p.start && tail.fresh && p.fresh)));
    }
    if (in_order && in_flight_bytes_ <= params_.fabric_buffer_bytes) {
      send_end_[src] = p.admitted;
      q.push_back(std::move(p));
      // An idle receiver starts on it; a busy one (it is delivering, or
      // has a head) reaches it in its own time.
      if (q.size() == 1 && !recv_event_[dst].IsValid()) {
        ScheduleHead(dst);
      }
      return;
    }
    Materialize();
  }
  send_queues_[src].push_back(std::move(p));
  MaybeStartSend(src);
}

void Switch::ScheduleHead(int port) {
  const Pending& head = recv_queues_[port].front();
  // The receive starts once the message is in the fabric and the previous
  // delivery (at or before now) is done, where the two-stage model would
  // schedule its completion.
  const SimTime start = std::max(head.admitted, sim_.Now());
  const SimTime end =
      std::max(start, stall_until_) + ReceiveService(head, port);
  recv_event_[port] =
      sim_.ScheduleAs(start, end, [this, port]() { Deliver(port); });
}

void Switch::Materialize() {
  if (two_stage_) {
    return;
  }
  two_stage_ = true;
  // Split every destination queue: the admitted prefix stays, and the
  // rest is still sending. A head still sending has not started its
  // receive, so its delivery is withdrawn (a receiver that is delivering
  // right now stays busy: its event is firing and cannot be cancelled).
  std::vector<Pending> sending;
  for (int d = 0; d < params_.ports; ++d) {
    PendingRing& q = recv_queues_[d];
    if (q.empty()) {
      continue;
    }
    if (!SendDone(q.front().start, q.front().admitted) &&
        sim_.Cancel(recv_event_[d])) {
      recv_event_[d] = EventId{};
    }
    for (size_t n = q.size(); n > 0; --n) {
      Pending m = std::move(q.front());
      q.pop_front();
      if (SendDone(m.start, m.admitted)) {
        fabric_occupancy_ += m.msg.bytes;
        q.push_back(std::move(m));
      } else {
        sending.push_back(std::move(m));
      }
    }
  }
  // Each source's unfinished sends in Send order: the first is in
  // service, the rest wait behind it.
  std::sort(sending.begin(), sending.end(),
            [](const Pending& a, const Pending& b) {
              return a.msg.src != b.msg.src ? a.msg.src < b.msg.src
                                            : a.serial < b.serial;
            });
  std::vector<int> serving;
  for (Pending& m : sending) {
    PendingRing& q = send_queues_[m.msg.src];
    if (q.empty()) {
      serving.push_back(m.msg.src);
    }
    q.push_back(std::move(m));
  }
  // Each in-service send completes where the two-stage model scheduled it:
  // at its end, from its start (ties in Send order).
  std::sort(serving.begin(), serving.end(), [this](int a, int b) {
    const Pending& x = send_queues_[a].front();
    const Pending& y = send_queues_[b].front();
    return x.start != y.start ? x.start < y.start : x.serial < y.serial;
  });
  for (const int port : serving) {
    const Pending& m = send_queues_[port].front();
    send_end_[port] = kBusy;
    sim_.ScheduleAs(m.start, m.admitted, [this, port]() { FinishSend(port); });
  }
}

void Switch::MaybeStartSend(int port) {
  PendingRing& q = send_queues_[port];
  if (send_end_[port] == kBusy || q.empty()) {
    return;
  }
  send_end_[port] = kBusy;
  Pending& p = q.front();
  p.start = sim_.Now();
  sim_.Schedule(StallRemaining() + SendService(p),
                [this, port]() { FinishSend(port); });
}

void Switch::FinishSend(int port) {
  PendingRing& q = send_queues_[port];
  Pending& head = q.front();
  if (fabric_occupancy_ + head.msg.bytes <= params_.fabric_buffer_bytes) {
    fabric_occupancy_ += head.msg.bytes;
    head.admitted = sim_.Now();
    const int dst = head.msg.dst;
    recv_queues_[dst].push_back(std::move(head));
    q.pop_front();
    send_end_[port] = sim_.Now();
    MaybeStartSend(port);
    MaybeStartReceive(dst);
  } else {
    // Fabric full: the link blocks (backpressure). The message parks and
    // this port's send server stays busy until space frees.
    awaiting_admission_[port].push_back(std::move(head));
    q.pop_front();
    ++awaiting_total_;
  }
}

void Switch::AdmitToFabric(int port) {
  while (!awaiting_admission_[port].empty()) {
    Pending& head = awaiting_admission_[port].front();
    if (fabric_occupancy_ + head.msg.bytes > params_.fabric_buffer_bytes) {
      return;
    }
    fabric_occupancy_ += head.msg.bytes;
    head.admitted = sim_.Now();
    const int dst = head.msg.dst;
    recv_queues_[dst].push_back(std::move(head));
    awaiting_admission_[port].pop_front();
    --awaiting_total_;
    send_end_[port] = sim_.Now();
    MaybeStartSend(port);
    MaybeStartReceive(dst);
  }
}

void Switch::MaybeStartReceive(int port) {
  if (recv_event_[port].IsValid() || recv_queues_[port].empty()) {
    return;
  }
  const Duration service = ReceiveService(recv_queues_[port].front(), port);
  recv_event_[port] = sim_.Schedule(StallRemaining() + service,
                                    [this, port]() { Deliver(port); });
}

void Switch::Deliver(int port) {
  PendingRing& q = recv_queues_[port];
  Pending p = std::move(q.front());
  q.pop_front();
  --in_flight_;
  in_flight_bytes_ -= p.msg.bytes;
  if (two_stage_) {
    fabric_occupancy_ -= p.msg.bytes;
  }
  delivered_bytes_[port] += p.msg.bytes;
  const SimTime now = sim_.Now();
  latency_.AddDuration(now - p.enqueued);
  if (recorder_ != nullptr && p.trace_id != 0) {
    recorder_->RequestStart(p.admitted, trace_comp_, p.trace_id, p.msg.src,
                            p.admitted - p.enqueued);
    recorder_->RequestComplete(now, trace_comp_, p.trace_id, port,
                               p.admitted - p.enqueued, now - p.admitted);
  }
  // The receiver stays busy while `done` runs (it may send, or switch the
  // model to two-stage).
  if (p.msg.done) {
    p.msg.done(now);
  }
  // Space freed: admit parked messages round-robin across ports. With
  // nothing parked anywhere the sweep is provably a no-op and is skipped.
  if (awaiting_total_ > 0) {
    for (int i = 0; i < params_.ports; ++i) {
      AdmitToFabric(i);
    }
  }
  recv_event_[port] = EventId{};
  if (!two_stage_) {
    if (!q.empty()) {
      ScheduleHead(port);
    }
    return;
  }
  MaybeStartReceive(port);
  if (in_flight_ == 0) {
    two_stage_ = false;  // empty: every server is idle
  }
}

}  // namespace fst

#include "src/devices/network.h"

#include <algorithm>

namespace fst {

namespace {
constexpr double kMega = 1e6;
}  // namespace

Switch::Switch(Simulator& sim, SwitchParams params, MetricRegistry* metrics,
               EventRecorder* recorder)
    : sim_(sim), params_(params), metrics_(metrics), recorder_(recorder),
      send_queues_(params.ports), send_busy_(params.ports, false),
      awaiting_admission_(params.ports), recv_queues_(params.ports),
      recv_busy_(params.ports, false), recv_speed_(params.ports, 1.0),
      src_weight_(params.ports, 1.0), delivered_bytes_(params.ports, 0) {
  if (recorder_ != nullptr) {
    trace_comp_ = recorder_->Intern("switch");
  }
}

void Switch::SetReceiverSpeed(int port, double factor) {
  recv_speed_[port] = std::max(factor, 1e-6);
}

void Switch::SetSourceWeight(int port, double weight) {
  src_weight_[port] = std::max(weight, 1e-6);
}

void Switch::Stall(Duration length) {
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

int64_t Switch::total_delivered_bytes() const {
  int64_t total = 0;
  for (int64_t b : delivered_bytes_) {
    total += b;
  }
  return total;
}

void Switch::Send(NetMessage msg) {
  const int src = msg.src;
  const SimTime now = sim_.Now();
  uint64_t trace_id = 0;
  if (recorder_ != nullptr && recorder_->request_spans()) {
    trace_id = recorder_->NextRequestId();
    recorder_->RequestEnqueue(now, trace_comp_, trace_id, src,
                              static_cast<double>(send_queues_[src].size() + 1));
  }
  // One relocation: the message moves straight into the ring slot instead
  // of staging through a local Pending.
  send_queues_[src].push_back(Pending{std::move(msg), now, SimTime(), trace_id});
  MaybeStartSend(src);
}

void Switch::MaybeStartSend(int port) {
  if (send_busy_[port] || send_queues_[port].empty()) {
    return;
  }
  send_busy_[port] = true;
  const Pending& p = send_queues_[port].front();
  const double bytes = static_cast<double>(p.msg.bytes);
  const Duration service =
      params_.per_message_overhead +
      Duration::Seconds(bytes / (params_.link_mbps * kMega)) * src_weight_[port];
  sim_.Schedule(StallRemaining() + service, [this, port]() { FinishSend(port); });
}

void Switch::FinishSend(int port) {
  Pending& head = send_queues_[port].front();
  if (fabric_occupancy_ + head.msg.bytes <= params_.fabric_buffer_bytes) {
    fabric_occupancy_ += head.msg.bytes;
    head.admitted = sim_.Now();
    if (recorder_ != nullptr && head.trace_id != 0) {
      recorder_->RequestStart(head.admitted, trace_comp_, head.trace_id, port,
                              head.admitted - head.enqueued);
    }
    // Move straight from the send FIFO into the receive FIFO — the
    // common path shuffles no intermediate Pending.
    const int dst = head.msg.dst;
    recv_queues_[dst].push_back(std::move(head));
    send_queues_[port].pop_front();
    send_busy_[port] = false;
    MaybeStartSend(port);
    MaybeStartReceive(dst);
  } else {
    // Fabric full: the link blocks (backpressure). The message parks and
    // this port's send server stays busy until space frees.
    awaiting_admission_[port].push_back(std::move(head));
    send_queues_[port].pop_front();
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
    if (recorder_ != nullptr && head.trace_id != 0) {
      recorder_->RequestStart(head.admitted, trace_comp_, head.trace_id, port,
                              head.admitted - head.enqueued);
    }
    const int dst = head.msg.dst;
    recv_queues_[dst].push_back(std::move(head));
    awaiting_admission_[port].pop_front();
    --awaiting_total_;
    send_busy_[port] = false;
    MaybeStartSend(port);
    MaybeStartReceive(dst);
  }
}

void Switch::MaybeStartReceive(int port) {
  if (recv_busy_[port] || recv_queues_[port].empty()) {
    return;
  }
  recv_busy_[port] = true;
  const Pending& p = recv_queues_[port].front();
  const double bytes = static_cast<double>(p.msg.bytes);
  const double rate = params_.link_mbps * kMega * recv_speed_[port];
  const Duration service =
      params_.per_message_overhead + Duration::Seconds(bytes / rate);
  sim_.Schedule(StallRemaining() + service,
                [this, port]() { FinishReceive(port); });
}

void Switch::FinishReceive(int port) {
  Pending p = std::move(recv_queues_[port].front());
  recv_queues_[port].pop_front();
  fabric_occupancy_ -= p.msg.bytes;
  delivered_bytes_[port] += p.msg.bytes;
  const SimTime now = sim_.Now();
  latency_.AddDuration(now - p.enqueued);
  if (recorder_ != nullptr && p.trace_id != 0) {
    recorder_->RequestComplete(now, trace_comp_, p.trace_id, port,
                               p.admitted - p.enqueued, now - p.admitted);
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("switch.delivered_bytes")
        .Increment(static_cast<double>(p.msg.bytes));
  }
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
  recv_busy_[port] = false;
  MaybeStartReceive(port);
}

}  // namespace fst

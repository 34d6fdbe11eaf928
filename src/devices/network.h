// A simulated cluster interconnect (switch + per-node links).
//
// Captures the Section 2.1.3 pathologies:
//   * flow control (Brewer & Kuszmaul, CM-5): the fabric has finite buffer;
//     when a slow receiver lets messages accumulate, senders block on
//     backpressure and *everyone's* transfer slows ("reducing transpose
//     performance by almost a factor of three");
//   * unfairness (Myrinet): per-source weights make some routes cheaper;
//   * deadlock recovery (Myrinet): a stall window halts all switch traffic
//     (the paper: "halting all switch traffic for two seconds").
//
// Model: each source port is a FIFO send server at the link rate; a sent
// message occupies fabric buffer until its receive server (per destination
// port, rate = link rate x receiver speed factor) drains it. When the
// fabric buffer is full, send completions park until space frees.
//
// Both servers are FIFO and fix a stage's service time when it starts, so
// while no admission can fail and no knob changes mid-flight, a message's
// delivery time follows in closed form when it is sent: Send computes its
// send end t1 and queues it at its destination, and the switch fires one
// event per message, its delivery, keyed as the two-stage model would
// schedule it (at the receive start, Simulator::ScheduleAs). When the
// closed form would not be exact (a later send overtaking an earlier one
// at its destination, a Stall or speed/weight change with messages in
// flight, in-flight bytes that might not fit the fabric) the switch
// materializes its in-flight messages into the two-stage state and runs
// two-stage, with a send and a receive event per message, until it is
// empty (DESIGN.md, "Cluster interconnect").
#ifndef SRC_DEVICES_NETWORK_H_
#define SRC_DEVICES_NETWORK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/obs/recorder.h"
#include "src/simcore/inline_callback.h"
#include "src/simcore/ring_fifo.h"
#include "src/simcore/simulator.h"
#include "src/simcore/stats.h"
#include "src/simcore/time.h"

namespace fst {

// Move-only: `done` is an SBO callback, so enqueueing a message never heap
// allocates for captures up to InlineFunction's inline budget.
struct NetMessage {
  int src = 0;
  int dst = 0;
  int64_t bytes = 0;
  InlineFunction<void(SimTime delivered)> done;
};

struct SwitchParams {
  int ports = 16;
  double link_mbps = 40.0;          // per-port link bandwidth
  int64_t fabric_buffer_bytes = 1 << 20;
  Duration per_message_overhead = Duration::Micros(10);
};

class Switch {
 public:
  // Throws std::invalid_argument unless link_mbps is finite and > 0,
  // fabric_buffer_bytes > 0 and per_message_overhead >= 0.
  Switch(Simulator& sim, SwitchParams params,
         EventRecorder* recorder = nullptr);

  // Sends a message; `msg.done` fires at delivery (after receive drain).
  void Send(NetMessage msg);

  // Receiver speed factor in (0, 1]: a "slow receiver" drains its inbound
  // queue at factor x link rate. Default 1.0.
  void SetReceiverSpeed(int port, double factor);

  // Unfairness: service-time weight for messages *from* `port` (> 1 means
  // the switch disfavors this source). Default 1.0.
  void SetSourceWeight(int port, double weight);

  // Halts all new send/receive service for `length` (deadlock recovery).
  void Stall(Duration length);

  int64_t delivered_bytes(int port) const { return delivered_bytes_[port]; }
  int64_t total_delivered_bytes() const;
  const Histogram& delivery_latency() const { return latency_; }
  // Bytes admitted to the fabric and not yet delivered at Now().
  int64_t fabric_occupancy() const;
  int stalls() const { return stalls_; }

  const SwitchParams& params() const { return params_; }

 private:
  struct Pending {
    NetMessage msg;
    SimTime enqueued;
    SimTime start;          // send start
    SimTime admitted;       // send end: when the message enters the fabric
    uint64_t trace_id = 0;  // joins this message's trace events
    uint64_t serial = 0;    // Send order
    // The send started inside its own Send call (the port was idle), so
    // its send completion was scheduled there, in Send order.
    bool fresh = false;
  };

  using PendingRing = FifoRing<Pending>;

  // Returns how long until a stall window ends (zero if not stalled).
  Duration StallRemaining() const;
  Duration SendService(const Pending& p) const;
  Duration ReceiveService(const Pending& p, int port) const;

  // Whether a send ending at `end`, started at `start`, has completed at
  // the current point of the order key.
  bool SendDone(SimTime start, SimTime end) const;

  // Closed form: schedules the delivery of `port`'s head message.
  void ScheduleHead(int port);
  // Converts every in-flight message to the two-stage state.
  void Materialize();

  void MaybeStartSend(int port);
  void FinishSend(int port);
  void AdmitToFabric(int port);
  void MaybeStartReceive(int port);
  void Deliver(int port);

  Simulator& sim_;
  SwitchParams params_;
  EventRecorder* recorder_;
  uint16_t trace_comp_ = 0;

  // False while every in-flight message is timed in closed form.
  bool two_stage_ = false;
  // Closed form: each port's last send end, the port is free from then on.
  // Two-stage: kBusy while the port's send server is busy.
  std::vector<SimTime> send_end_;
  // Two-stage only: queued and in-service sends per source port.
  std::vector<PendingRing> send_queues_;
  // Sent but not yet admitted to the fabric (waiting for buffer space).
  std::vector<PendingRing> awaiting_admission_;
  // Total parked messages across all ports: lets a delivery skip the
  // admission sweep entirely in the (overwhelmingly common) uncongested
  // case instead of probing every port's empty queue.
  int64_t awaiting_total_ = 0;
  // Per destination port, in delivery order. Closed form: every in-flight
  // message bound there. Two-stage: the admitted ones.
  std::vector<PendingRing> recv_queues_;
  // The receive server's delivery event, valid from when it is scheduled
  // until that delivery returns: the server is busy while it is valid.
  std::vector<EventId> recv_event_;
  std::vector<double> recv_speed_;
  std::vector<double> src_weight_;
  std::vector<int64_t> delivered_bytes_;

  int64_t in_flight_ = 0;        // sent, not yet delivered
  int64_t in_flight_bytes_ = 0;
  uint64_t next_serial_ = 0;
  int64_t fabric_occupancy_ = 0;  // two-stage only
  SimTime stall_until_ = SimTime::Zero();
  int stalls_ = 0;
  Histogram latency_;
};

}  // namespace fst

#endif  // SRC_DEVICES_NETWORK_H_

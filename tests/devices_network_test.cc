#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/devices/network.h"
#include "src/simcore/ring_fifo.h"
#include "src/simcore/rng.h"
#include "src/simcore/simulator.h"
#include "src/simcore/stats.h"
#include "tests/test_util.h"

namespace fst {
namespace {

SwitchParams SmallSwitch(int ports = 4, double mbps = 100.0) {
  SwitchParams p;
  p.ports = ports;
  p.link_mbps = mbps;
  p.fabric_buffer_bytes = 1 << 20;
  p.per_message_overhead = Duration::Micros(10);
  return p;
}

TEST(SwitchTest, SingleMessageLatency) {
  Simulator sim;
  Switch net(sim, SmallSwitch());
  bool done = false;
  SimTime delivered;
  NetMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 1 << 20;
  msg.done = [&](SimTime t) {
    done = true;
    delivered = t;
  };
  net.Send(std::move(msg));
  RunAndExpect(sim, done);
  // Send + receive each take bytes/rate + overhead (store-and-forward).
  const double transfer = static_cast<double>(1 << 20) / (100.0 * 1e6);
  EXPECT_NEAR(delivered.ToSeconds(), 2 * (transfer + 10e-6), 1e-9);
  EXPECT_EQ(net.delivered_bytes(1), 1 << 20);
  EXPECT_EQ(net.total_delivered_bytes(), 1 << 20);
}

TEST(SwitchTest, PerSourceSerialization) {
  // Two messages from the same source serialize on its link.
  Simulator sim;
  Switch net(sim, SmallSwitch());
  std::vector<double> times;
  for (int i = 0; i < 2; ++i) {
    NetMessage msg;
    msg.src = 0;
    msg.dst = 1 + i;  // distinct destinations: no receive-side queueing
    msg.bytes = 1 << 20;
    msg.done = [&](SimTime t) { times.push_back(t.ToSeconds()); };
    net.Send(std::move(msg));
  }
  sim.Run();
  ASSERT_EQ(times.size(), 2u);
  const double transfer = static_cast<double>(1 << 20) / (100.0 * 1e6) + 10e-6;
  EXPECT_NEAR(times[1] - times[0], transfer, 1e-9);
}

TEST(SwitchTest, SlowReceiverDrainsSlowly) {
  Simulator sim;
  Switch net(sim, SmallSwitch());
  net.SetReceiverSpeed(1, 0.25);
  bool done = false;
  SimTime delivered;
  NetMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 1 << 20;
  msg.done = [&](SimTime t) {
    done = true;
    delivered = t;
  };
  net.Send(std::move(msg));
  RunAndExpect(sim, done);
  const double send = static_cast<double>(1 << 20) / (100.0 * 1e6) + 10e-6;
  const double recv = static_cast<double>(1 << 20) / (25.0 * 1e6) + 10e-6;
  EXPECT_NEAR(delivered.ToSeconds(), send + recv, 1e-9);
}

TEST(SwitchTest, SourceWeightSlowsDisfavoredSender) {
  // Myrinet unfairness (Section 2.1.3): disfavored routes appear slower.
  Simulator sim;
  Switch net(sim, SmallSwitch());
  net.SetSourceWeight(0, 2.0);
  std::vector<double> t(2, 0.0);
  for (int src : {0, 1}) {
    NetMessage msg;
    msg.src = src;
    msg.dst = 2 + src;
    msg.bytes = 1 << 20;
    msg.done = [&t, src](SimTime when) {
      t[static_cast<size_t>(src)] = when.ToSeconds();
    };
    net.Send(std::move(msg));
  }
  sim.Run();
  EXPECT_GT(t[0], t[1] * 1.4);
}

TEST(SwitchTest, FabricBackpressureBlocksSenders) {
  // Fill the fabric with traffic to a dead-slow receiver; an unrelated
  // flow then stalls behind the buffer (flow-control coupling, CM-5).
  Simulator sim;
  SwitchParams p = SmallSwitch();
  p.fabric_buffer_bytes = 2 << 20;  // room for only two messages
  Switch net(sim, p);
  net.SetReceiverSpeed(1, 0.01);

  int to_slow_done = 0;
  for (int i = 0; i < 4; ++i) {
    NetMessage msg;
    msg.src = 0;
    msg.dst = 1;
    msg.bytes = 1 << 20;
    msg.done = [&](SimTime) { ++to_slow_done; };
    net.Send(std::move(msg));
  }
  // Once the backlog to the slow receiver has filled the fabric, an
  // unrelated flow gets stuck waiting for buffer space.
  double unrelated_done = 0.0;
  sim.Schedule(Duration::Millis(50), [&]() {
    NetMessage msg;
    msg.src = 2;
    msg.dst = 3;
    msg.bytes = 1 << 20;
    msg.done = [&](SimTime t) { unrelated_done = t.ToSeconds(); };
    net.Send(std::move(msg));
  });

  sim.Run();
  EXPECT_EQ(to_slow_done, 4);
  // Intrinsic time would be ~71 ms; blocked behind the slow receiver's
  // drain (~1 s per message) it finishes far later.
  EXPECT_GT(unrelated_done, 0.5);
}

TEST(SwitchTest, StallHaltsTraffic) {
  // Myrinet deadlock recovery: all switch traffic halts (2 s in the paper).
  Simulator sim;
  Switch net(sim, SmallSwitch());
  net.Stall(Duration::Seconds(2.0));
  bool done = false;
  SimTime delivered;
  NetMessage msg;
  msg.src = 0;
  msg.dst = 1;
  msg.bytes = 1000;
  msg.done = [&](SimTime t) {
    done = true;
    delivered = t;
  };
  net.Send(std::move(msg));
  RunAndExpect(sim, done);
  EXPECT_GE(delivered.ToSeconds(), 2.0);
  EXPECT_EQ(net.stalls(), 1);
}

TEST(SwitchTest, DeliveryLatencyHistogramPopulated) {
  Simulator sim;
  Switch net(sim, SmallSwitch());
  for (int i = 0; i < 8; ++i) {
    NetMessage msg;
    msg.src = i % 4;
    msg.dst = (i + 1) % 4;
    msg.bytes = 4096;
    net.Send(std::move(msg));
  }
  sim.Run();
  EXPECT_EQ(net.delivery_latency().count(), 8u);
  EXPECT_EQ(net.fabric_occupancy(), 0);
}

// Each knob below would turn a transfer time into an infinite or negative
// cast to integer nanos, or park every message for want of fabric space.
TEST(SwitchTest, RejectsNonPositiveOrNonFiniteLinkRate) {
  Simulator sim;
  for (const double mbps : {0.0, -40.0, std::nan(""), HUGE_VAL}) {
    EXPECT_THROW(Switch(sim, SmallSwitch(4, mbps)), std::invalid_argument)
        << mbps;
  }
  EXPECT_NO_THROW(Switch(sim, SmallSwitch(4, 1e-3)));
}

TEST(SwitchTest, RejectsNonPositiveFabricBuffer) {
  Simulator sim;
  SwitchParams p = SmallSwitch();
  for (const int64_t bytes : {int64_t{0}, int64_t{-1}}) {
    p.fabric_buffer_bytes = bytes;
    EXPECT_THROW(Switch(sim, p), std::invalid_argument) << bytes;
  }
  p.fabric_buffer_bytes = 1;
  EXPECT_NO_THROW(Switch(sim, p));
}

TEST(SwitchTest, RejectsNegativePerMessageOverhead) {
  Simulator sim;
  SwitchParams p = SmallSwitch();
  p.per_message_overhead = Duration::Nanos(-1);
  EXPECT_THROW(Switch(sim, p), std::invalid_argument);
  p.per_message_overhead = Duration::Zero();
  EXPECT_NO_THROW(Switch(sim, p));
}

// ---------------------------------------------------------------------------
// Closed form vs the two-stage model
// ---------------------------------------------------------------------------

// The two-stage switch the closed form must reproduce: a FIFO send server
// per source port whose completion admits the message to the fabric (or
// parks it while the buffer is full), then a FIFO receive server per
// destination port whose completion delivers it. Two events per message.
class TwoStageSwitch {
 public:
  TwoStageSwitch(Simulator& sim, SwitchParams params)
      : sim_(sim), params_(params), send_queues_(params.ports),
        send_busy_(params.ports, false), awaiting_admission_(params.ports),
        recv_queues_(params.ports), recv_busy_(params.ports, false),
        recv_speed_(params.ports, 1.0), src_weight_(params.ports, 1.0),
        delivered_bytes_(params.ports, 0) {}

  void Send(NetMessage msg) {
    const int src = msg.src;
    send_queues_[src].push_back(Pending{std::move(msg), sim_.Now()});
    MaybeStartSend(src);
  }
  void SetReceiverSpeed(int port, double factor) {
    recv_speed_[port] = std::max(factor, 1e-6);
  }
  void SetSourceWeight(int port, double weight) {
    src_weight_[port] = std::max(weight, 1e-6);
  }
  void Stall(Duration length) {
    stall_until_ = std::max(stall_until_, sim_.Now() + length);
    ++stalls_;
  }
  int64_t delivered_bytes(int port) const { return delivered_bytes_[port]; }
  const Histogram& delivery_latency() const { return latency_; }
  int64_t fabric_occupancy() const { return fabric_occupancy_; }
  int stalls() const { return stalls_; }
  int parked() const { return parked_; }

 private:
  struct Pending {
    NetMessage msg;
    SimTime enqueued;
  };

  Duration StallRemaining() const {
    return sim_.Now() >= stall_until_ ? Duration::Zero()
                                      : stall_until_ - sim_.Now();
  }

  void MaybeStartSend(int port) {
    if (send_busy_[port] || send_queues_[port].empty()) {
      return;
    }
    send_busy_[port] = true;
    const double bytes = static_cast<double>(send_queues_[port].front().msg.bytes);
    const Duration service =
        params_.per_message_overhead +
        Duration::Seconds(bytes / (params_.link_mbps * 1e6)) * src_weight_[port];
    sim_.Schedule(StallRemaining() + service, [this, port]() { FinishSend(port); });
  }

  void FinishSend(int port) {
    Pending& head = send_queues_[port].front();
    if (fabric_occupancy_ + head.msg.bytes <= params_.fabric_buffer_bytes) {
      Admit(port, send_queues_[port]);
    } else {
      awaiting_admission_[port].push_back(std::move(head));
      send_queues_[port].pop_front();
      ++parked_;
    }
  }

  void Admit(int port, FifoRing<Pending>& from) {
    Pending& head = from.front();
    fabric_occupancy_ += head.msg.bytes;
    const int dst = head.msg.dst;
    recv_queues_[dst].push_back(std::move(head));
    from.pop_front();
    send_busy_[port] = false;
    MaybeStartSend(port);
    MaybeStartReceive(dst);
  }

  void MaybeStartReceive(int port) {
    if (recv_busy_[port] || recv_queues_[port].empty()) {
      return;
    }
    recv_busy_[port] = true;
    const double bytes = static_cast<double>(recv_queues_[port].front().msg.bytes);
    const double rate = params_.link_mbps * 1e6 * recv_speed_[port];
    const Duration service =
        params_.per_message_overhead + Duration::Seconds(bytes / rate);
    sim_.Schedule(StallRemaining() + service,
                  [this, port]() { FinishReceive(port); });
  }

  void FinishReceive(int port) {
    Pending p = std::move(recv_queues_[port].front());
    recv_queues_[port].pop_front();
    fabric_occupancy_ -= p.msg.bytes;
    delivered_bytes_[port] += p.msg.bytes;
    latency_.AddDuration(sim_.Now() - p.enqueued);
    if (p.msg.done) {
      p.msg.done(sim_.Now());
    }
    for (int i = 0; i < params_.ports; ++i) {
      while (!awaiting_admission_[i].empty() &&
             fabric_occupancy_ + awaiting_admission_[i].front().msg.bytes <=
                 params_.fabric_buffer_bytes) {
        Admit(i, awaiting_admission_[i]);
      }
    }
    recv_busy_[port] = false;
    MaybeStartReceive(port);
  }

  Simulator& sim_;
  SwitchParams params_;
  std::vector<FifoRing<Pending>> send_queues_;
  std::vector<bool> send_busy_;
  std::vector<FifoRing<Pending>> awaiting_admission_;
  std::vector<FifoRing<Pending>> recv_queues_;
  std::vector<bool> recv_busy_;
  std::vector<double> recv_speed_;
  std::vector<double> src_weight_;
  std::vector<int64_t> delivered_bytes_;
  int64_t fabric_occupancy_ = 0;
  SimTime stall_until_ = SimTime::Zero();
  int stalls_ = 0;
  int parked_ = 0;
  Histogram latency_;
};

// One step of seeded traffic, drawn once and replayed on both models.
struct TrafficStep {
  enum Kind { kSend, kStall, kSpeed, kWeight, kProbe };
  int64_t at_ns = 0;
  int64_t scheduled_at_ns = 0;  // the instant its event is scheduled from
  Kind kind = kSend;
  int src = 0;
  int dst = 0;
  int64_t bytes = 0;
  int reply_after_ns = -1;  // >= 0: the receiver answers this long after
  double value = 0.0;       // speed factor, weight, or stall seconds
};

std::vector<TrafficStep> DrawTraffic(uint64_t seed, int ports) {
  Rng rng(seed);
  std::vector<TrafficStep> steps;
  int64_t t = 0;
  for (int phase = 0; phase < 40; ++phase) {
    // A busy phase: bursts of sends (many at one instant), then a quiet
    // gap long enough for the switch to drain.
    const int sends = static_cast<int>(rng.UniformInt(5, 120));
    for (int i = 0; i < sends; ++i) {
      t += rng.UniformDouble() < 0.3 ? 0 : rng.UniformInt(1, 400'000);
      TrafficStep s;
      s.at_ns = t;
      if (rng.UniformDouble() < 0.1) {
        s.scheduled_at_ns = std::max<int64_t>(0, t - rng.UniformInt(0, 50'000));
      }
      s.src = static_cast<int>(rng.UniformInt(0, ports - 1));
      s.dst = static_cast<int>(rng.UniformInt(0, ports - 1));
      const double size = rng.UniformDouble();
      s.bytes = size < 0.5   ? 256
                : size < 0.8 ? rng.UniformInt(64, 4096)
                             : rng.UniformInt(4096, 40'000);
      if (rng.UniformDouble() < 0.25) {
        s.reply_after_ns = static_cast<int>(rng.UniformInt(0, 200'000));
      }
      steps.push_back(s);
      const double u = rng.UniformDouble();
      if (u < 0.03 || u > 0.99) {
        // A knob change or a stall, usually with messages in flight: a
        // speed change at this send's receiver, a weight change at its
        // sender.
        TrafficStep k;
        k.at_ns = t + rng.UniformInt(0, 100'000);
        const double which = rng.UniformDouble();
        k.kind = which < 0.35   ? TrafficStep::kStall
                 : which < 0.7  ? TrafficStep::kSpeed
                 : which < 0.95 ? TrafficStep::kWeight
                                : TrafficStep::kProbe;
        k.src = k.kind == TrafficStep::kSpeed ? s.dst : s.src;
        k.value = k.kind == TrafficStep::kStall ? rng.UniformDouble() * 2e-3
                  : k.kind == TrafficStep::kSpeed
                      ? 0.05 + 0.95 * rng.UniformDouble()
                      : 0.5 + 2.0 * rng.UniformDouble();
        steps.push_back(k);
      }
    }
    t += rng.UniformInt(0, 1) == 0 ? rng.UniformInt(1, 50'000'000) : 0;
  }
  return steps;
}

struct TrafficOutcome {
  std::vector<std::vector<std::pair<int, int64_t>>> deliveries;  // per port
  std::vector<int64_t> delivered_bytes;
  uint64_t latency_count = 0;
  double latency_sum = 0.0;
  std::vector<double> latency_quantiles;
  int stalls = 0;
  uint64_t events = 0;
  std::vector<int64_t> probed_occupancy;
  int parked = 0;  // two-stage model only
};

template <typename S>
TrafficOutcome ReplayTraffic(const std::vector<TrafficStep>& steps,
                             SwitchParams params) {
  Simulator sim;
  S net(sim, params);
  TrafficOutcome out;
  out.deliveries.resize(static_cast<size_t>(params.ports));
  int next_id = 0;
  // Sends a message whose delivery is logged under its id; a reply goes
  // back the other way once the receiver has "worked" for reply_after_ns.
  auto send = [&](auto& self, int src, int dst, int64_t bytes,
                  int reply_after_ns) -> void {
    const int id = next_id++;
    NetMessage m;
    m.src = src;
    m.dst = dst;
    m.bytes = bytes;
    m.done = [&, id, src, dst, bytes, reply_after_ns, self](SimTime t) {
      out.deliveries[static_cast<size_t>(dst)].push_back({id, t.nanos()});
      if (reply_after_ns >= 0) {
        sim.Schedule(Duration::Nanos(reply_after_ns), [&, src, dst, bytes, self]() {
          self(self, dst, src, bytes / 2 + 64, -1);
        });
      }
    };
    net.Send(std::move(m));
  };
  auto run_step = [&](const TrafficStep& s) {
    switch (s.kind) {
      case TrafficStep::kSend:
        send(send, s.src, s.dst, s.bytes, s.reply_after_ns);
        break;
      case TrafficStep::kStall:
        net.Stall(Duration::Seconds(s.value));
        break;
      case TrafficStep::kSpeed:
        net.SetReceiverSpeed(s.src, s.value);
        break;
      case TrafficStep::kWeight:
        net.SetSourceWeight(s.src, s.value);
        break;
      case TrafficStep::kProbe:
        out.probed_occupancy.push_back(net.fabric_occupancy());
        break;
    }
  };
  for (const TrafficStep& s : steps) {
    sim.ScheduleAt(SimTime(s.scheduled_at_ns), [&, s]() {
      sim.ScheduleAt(SimTime(s.at_ns), [&, s]() { run_step(s); });
    });
  }
  sim.Run();
  for (int p = 0; p < params.ports; ++p) {
    out.delivered_bytes.push_back(net.delivered_bytes(p));
  }
  const Histogram& h = net.delivery_latency();
  out.latency_count = h.count();
  out.latency_sum = h.sum();
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    out.latency_quantiles.push_back(h.ValueAtQuantile(q));
  }
  out.stalls = net.stalls();
  out.events = sim.events_fired();
  out.probed_occupancy.push_back(net.fabric_occupancy());
  if constexpr (std::is_same_v<S, TwoStageSwitch>) {
    out.parked = net.parked();
  }
  return out;
}

// Seeded traffic over many ports: mixed sizes, bursts at one instant,
// replies sent from delivery callbacks, a fabric buffer small enough to
// fill (every other seed parks senders on backpressure), and stalls and
// speed and weight changes landing while messages are in flight. Every
// port must see the same deliveries (message, time) in the same order as
// under the two-stage model, with the same bytes, latency histogram,
// stall count and probed fabric occupancy; the closed form must also have
// fired fewer events, so it was not two-stage all along.
TEST(SwitchClosedFormTest, MatchesTwoStageModelOnSeededTraffic) {
  SwitchParams params;
  params.ports = 12;
  params.link_mbps = 100.0;
  params.per_message_overhead = Duration::Micros(10);
  for (const uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    SCOPED_TRACE(seed);
    params.fabric_buffer_bytes = seed % 2 == 0 ? 48'000 : 160'000;
    const std::vector<TrafficStep> steps = DrawTraffic(seed, params.ports);
    const TrafficOutcome ref = ReplayTraffic<TwoStageSwitch>(steps, params);
    const TrafficOutcome got = ReplayTraffic<Switch>(steps, params);
    ASSERT_GT(ref.latency_count, 1000u);
    for (size_t p = 0; p < ref.deliveries.size(); ++p) {
      ASSERT_EQ(got.deliveries[p], ref.deliveries[p]) << "port " << p;
    }
    EXPECT_EQ(got.delivered_bytes, ref.delivered_bytes);
    EXPECT_EQ(got.latency_count, ref.latency_count);
    EXPECT_EQ(got.latency_sum, ref.latency_sum);
    EXPECT_EQ(got.latency_quantiles, ref.latency_quantiles);
    EXPECT_EQ(got.stalls, ref.stalls);
    EXPECT_EQ(got.probed_occupancy, ref.probed_occupancy);
    EXPECT_LT(got.events, ref.events);
    if (seed % 2 == 0) {
      EXPECT_GT(ref.parked, 0);
    }
  }
}

// Two sends to one destination ending at the same instant, one chained
// behind its port's previous send and one started fresh at that instant:
// the two-stage model admits first whichever send completion was
// scheduled first. That is the fresh one when its Send runs before the
// chained send's predecessor completes (its event orders first), else the
// chained one. The closed form must reproduce both orders.
TEST(SwitchClosedFormTest, TiedSendEndsKeepTheTwoStageOrder) {
  SwitchParams params;
  params.ports = 4;
  params.link_mbps = 100.0;
  params.per_message_overhead = Duration::Micros(10);
  const int64_t service =
      (params.per_message_overhead + Duration::Seconds(256.0 / 100e6)).nanos();
  for (const int64_t scheduled_at : {int64_t{0}, service / 2}) {
    SCOPED_TRACE(scheduled_at);
    std::vector<TrafficStep> steps(3);
    for (TrafficStep& s : steps) {
      s.dst = 3;
      s.bytes = 256;
    }
    steps[2].src = 1;  // sent fresh as port 0's first send ends
    steps[2].at_ns = service;
    steps[2].scheduled_at_ns = scheduled_at;
    const TrafficOutcome ref = ReplayTraffic<TwoStageSwitch>(steps, params);
    const TrafficOutcome got = ReplayTraffic<Switch>(steps, params);
    ASSERT_EQ(ref.deliveries[3].size(), 3u);
    EXPECT_EQ(got.deliveries[3], ref.deliveries[3]);
    // Message ids: 0 and 1 from port 0 (1 chained), 2 from port 1.
    EXPECT_EQ(ref.deliveries[3][1].first, scheduled_at == 0 ? 2 : 1);
  }
}

}  // namespace
}  // namespace fst

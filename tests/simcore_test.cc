#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "src/simcore/event_queue.h"
#include "src/simcore/inline_callback.h"
#include "src/simcore/metrics.h"
#include "src/simcore/rng.h"
#include "src/simcore/simulator.h"
#include "src/simcore/stats.h"
#include "src/simcore/time.h"

namespace fst {
namespace {

// ---------------------------------------------------------------- time

TEST(TimeTest, DurationConstructorsAgree) {
  EXPECT_EQ(Duration::Micros(1).nanos(), 1000);
  EXPECT_EQ(Duration::Millis(1).nanos(), 1000000);
  EXPECT_EQ(Duration::Seconds(1.0).nanos(), 1000000000);
  EXPECT_EQ(Duration::Minutes(1.0).nanos(), Duration::Seconds(60.0).nanos());
  EXPECT_EQ(Duration::Hours(1.0).nanos(), Duration::Minutes(60.0).nanos());
}

TEST(TimeTest, DurationArithmetic) {
  const Duration a = Duration::Millis(3);
  const Duration b = Duration::Millis(2);
  EXPECT_EQ((a + b).nanos(), Duration::Millis(5).nanos());
  EXPECT_EQ((a - b).nanos(), Duration::Millis(1).nanos());
  EXPECT_DOUBLE_EQ(a / b, 1.5);
  EXPECT_EQ((a * 2.0).nanos(), Duration::Millis(6).nanos());
  EXPECT_EQ((a / 3.0).nanos(), Duration::Millis(1).nanos());
}

TEST(TimeTest, SimTimeOrderingAndOffset) {
  const SimTime t0 = SimTime::Zero();
  const SimTime t1 = t0 + Duration::Seconds(1.0);
  EXPECT_LT(t0, t1);
  EXPECT_EQ((t1 - t0).nanos(), Duration::Seconds(1.0).nanos());
  EXPECT_EQ((t1 - Duration::Seconds(1.0)).nanos(), t0.nanos());
}

TEST(TimeTest, ToStringPicksUnits) {
  EXPECT_EQ(Duration::Nanos(12).ToString(), "12ns");
  EXPECT_EQ(Duration::Micros(3).ToString(), "3.00us");
  EXPECT_EQ(Duration::Millis(5).ToString(), "5.00ms");
  EXPECT_EQ(Duration::Seconds(2.5).ToString(), "2.500s");
}

// ---------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 60000; ++i) {
    const int64_t v = rng.UniformInt(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++seen[static_cast<size_t>(v)];
  }
  for (int count : seen) {
    EXPECT_NEAR(count, 10000, 500);  // ~5 sigma
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(3.0);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(rng.Normal(10.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ParetoLowerBound) {
  Rng rng(15);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(rng.Pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(17);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Bernoulli(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(hits, 2500, 200);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(21);
  Rng child = parent.Fork();
  // The child stream must not replay the parent stream.
  Rng parent2(21);
  parent2.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.NextU64() == parent.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

// ---------------------------------------------------------------- event queue

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(SimTime(30), [&]() { order.push_back(3); });
  q.Push(SimTime(10), [&]() { order.push_back(1); });
  q.Push(SimTime(20), [&]() { order.push_back(2); });
  while (auto e = q.Pop()) {
    q.Fire(*e);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(SimTime(5), [&order, i]() { order.push_back(i); });
  }
  while (auto e = q.Pop()) {
    q.Fire(*e);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.Push(SimTime(10), [&]() { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // double-cancel fails
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelInvalidIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(EventId{}));
  EXPECT_FALSE(q.Cancel(EventId{999}));
}

TEST(EventQueueTest, PeekSkipsCancelled) {
  EventQueue q;
  const EventId early = q.Push(SimTime(1), []() {});
  q.Push(SimTime(2), []() {});
  q.Cancel(early);
  ASSERT_TRUE(q.PeekTime().has_value());
  EXPECT_EQ(q.PeekTime()->nanos(), 2);
}

TEST(EventQueueTest, LiveSizeTracksCancellation) {
  EventQueue q;
  const EventId a = q.Push(SimTime(1), []() {});
  q.Push(SimTime(2), []() {});
  EXPECT_EQ(q.live_size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.live_size(), 1u);
}

TEST(EventQueueTest, CancelAfterFireFails) {
  EventQueue q;
  const EventId id = q.Push(SimTime(10), []() {});
  auto fired = q.Pop();
  ASSERT_TRUE(fired.has_value());
  EXPECT_FALSE(q.Cancel(id));  // dead from the pop on, before it runs
  q.Fire(*fired);
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelFromInsideFiringCallback) {
  // Event A cancels same-time sibling B (scheduled later, so A fires
  // first); B must not fire and the cancel must report success.
  EventQueue q;
  std::vector<char> order;
  EventId b_id;
  bool b_cancel_ok = false;
  q.Push(SimTime(5), [&]() {
    order.push_back('a');
    b_cancel_ok = q.Cancel(b_id);
  });
  b_id = q.Push(SimTime(5), [&]() { order.push_back('b'); });
  q.Push(SimTime(6), [&]() { order.push_back('c'); });
  while (auto e = q.Pop()) {
    q.Fire(*e);
  }
  EXPECT_TRUE(b_cancel_ok);
  EXPECT_EQ(order, (std::vector<char>{'a', 'c'}));
}

TEST(EventQueueTest, HandleReuseAcrossGenerations) {
  EventQueue q;
  bool fired_c = false;
  const EventId a = q.Push(SimTime(10), []() {});
  EXPECT_TRUE(q.Cancel(a));
  // C reuses A's freed slot; the generation stamp keeps the ids distinct.
  const EventId c = q.Push(SimTime(20), [&]() { fired_c = true; });
  EXPECT_NE(a, c);
  EXPECT_FALSE(q.Cancel(a));  // stale handle cannot touch the new event
  ASSERT_TRUE(q.PeekTime().has_value());
  EXPECT_EQ(q.PeekTime()->nanos(), 20);
  EXPECT_TRUE(q.Cancel(c));
  EXPECT_FALSE(fired_c);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, StaleHandleAfterFireCannotCancelReusedSlot) {
  EventQueue q;
  const EventId d = q.Push(SimTime(1), []() {});
  auto fired_d = q.Pop();
  ASSERT_TRUE(fired_d.has_value());
  q.Fire(*fired_d);  // fires D, frees its slot
  bool fired_e = false;
  const EventId e = q.Push(SimTime(2), [&]() { fired_e = true; });
  EXPECT_EQ(e.value & 0xffffffffu, d.value & 0xffffffffu);  // same slot
  EXPECT_FALSE(q.Cancel(d));
  auto fired = q.Pop();
  ASSERT_TRUE(fired.has_value());
  q.Fire(*fired);
  EXPECT_TRUE(fired_e);
}

TEST(EventQueueTest, FarFutureOverflowOrdering) {
  // Events tens of seconds out, pushed before and after a near one, must
  // still interleave with it in strict time order.
  EventQueue q;
  std::vector<int> order;
  q.Push(SimTime(int64_t{25} * 1'000'000'000), [&]() { order.push_back(3); });
  q.Push(SimTime(1'000'000), [&]() { order.push_back(1); });
  q.Push(SimTime(int64_t{20} * 1'000'000'000), [&]() { order.push_back(2); });
  q.Push(SimTime(int64_t{30} * 1'000'000'000), [&]() { order.push_back(4); });
  while (auto e = q.Pop()) {
    q.Fire(*e);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, SameTimeAcrossStructuresKeepsFifo) {
  // A is pushed for T while T is 20 s away; after a pop advances time to
  // 5 s, B is pushed for the same T. Same-time events fire FIFO in push
  // order, however far ahead each was scheduled.
  EventQueue q;
  const SimTime t(int64_t{20} * 1'000'000'000);
  std::vector<char> order;
  q.Push(t, [&]() { order.push_back('a'); });      // 20 s ahead
  q.Push(SimTime(int64_t{5} * 1'000'000'000), [&]() { order.push_back('f'); });
  auto filler = q.Pop();  // time advances to 5 s
  q.Fire(*filler);
  q.Push(t, [&]() { order.push_back('b'); });      // now 15 s ahead
  while (auto e = q.Pop()) {
    q.Fire(*e);
  }
  EXPECT_EQ(order, (std::vector<char>{'f', 'a', 'b'}));
}

TEST(EventQueueTest, PeekTimeAndEmptyAreConst) {
  EventQueue q;
  q.Push(SimTime(7), []() {});
  const EventQueue& cq = q;  // compiles only if genuinely const
  ASSERT_TRUE(cq.PeekTime().has_value());
  EXPECT_EQ(cq.PeekTime()->nanos(), 7);
  EXPECT_FALSE(cq.Empty());
  EXPECT_EQ(cq.live_size(), 1u);
}

TEST(EventQueueTest, LiveSizeExactUnderChurn) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.Push(SimTime(i + 1), []() {}));
  }
  EXPECT_EQ(q.live_size(), 100u);
  for (int i = 0; i < 100; i += 2) {
    EXPECT_TRUE(q.Cancel(ids[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(q.live_size(), 50u);  // exact immediately, no lazy drop
  for (int i = 0; i < 25; ++i) {
    auto fired = q.Pop();
    ASSERT_TRUE(fired.has_value());
    q.Fire(*fired);
  }
  EXPECT_EQ(q.live_size(), 25u);
  EXPECT_FALSE(q.Empty());
}

// Differential test: random push/cancel/pop against a reference model
// (ordered map keyed on (time, scheduling instant, seq)). Most pushes go
// through the scheduling-instant path, half of them at one of three fixed
// delays so lanes form, some from an instant before the current time so
// they order before their lane's tail, some from a later instant (as
// ScheduleAs places them) so they order before or after same-time events
// of their lane; the rest exercise same-time ties, delays from
// zero to a minute, bursts of pushes inside one 4 us span (the hedge
// pattern) and heap-only pushes. Cancels hit the oldest (lane head),
// newest (lane tail) and a middle (lane body) pending event of a fixed
// delay, as well as random events; pops go through both Pop() and
// PopDue(deadline). PeekTime() and live_size() must match the reference
// after every step.
TEST(EventQueueTest, DifferentialAgainstReferenceModel) {
  using Key = std::tuple<int64_t, int64_t, uint64_t>;
  constexpr std::array<int64_t, 3> kFixedDelays = {0, 16'400, 1'000'000};
  EventQueue q;
  std::map<Key, int> reference;  // -> tag
  std::vector<std::pair<EventId, Key>> live;
  // Per fixed delay, its events in push order (fired ones linger until
  // pruned from either end).
  std::array<std::deque<std::pair<EventId, Key>>, kFixedDelays.size()> fixed;
  Rng rng(2024);
  uint64_t seq = 0;
  int tag = 0;
  int64_t now = 0;
  int fired_tag = -1;
  auto record = [&](EventId id, int64_t when, int64_t sched, int t) {
    reference.emplace(Key{when, sched, seq}, t);
    live.push_back({id, {when, sched, seq}});
    ++seq;
    return live.back();
  };
  auto push_at = [&](int64_t at, int64_t when) {
    const int t = tag++;
    return record(q.Push(SimTime(at), SimTime(when),
                         [&fired_tag, t]() { fired_tag = t; }),
                  when, at, t);
  };
  auto push_heap_only = [&](int64_t when) {
    const int t = tag++;
    record(q.Push(SimTime(when), [&fired_tag, t]() { fired_tag = t; }),
           when, 0, t);
  };
  auto cancel = [&](EventId id, Key key, int step) {
    const bool present = reference.erase(key) > 0;
    EXPECT_EQ(q.Cancel(id), present) << "step " << step;
  };
  // Fires a popped event and checks it was the reference minimum.
  auto expect_min = [&](const EventQueue::Popped& popped, int step) {
    ASSERT_FALSE(reference.empty()) << "step " << step;
    fired_tag = -1;
    q.Fire(popped);
    const auto expect = reference.begin();
    EXPECT_EQ(popped.when.nanos(), std::get<0>(expect->first)) << "step " << step;
    EXPECT_EQ(popped.seq, std::get<2>(expect->first)) << "step " << step;
    EXPECT_EQ(fired_tag, expect->second) << "step " << step;
    now = std::max(now, popped.when.nanos());
    reference.erase(expect);
  };
  for (int step = 0; step < 40000; ++step) {
    const double u = rng.UniformDouble();
    if (u < 0.002) {
      // Burst: 64-512 pushes inside one 4 us span.
      const int64_t start = now + rng.UniformInt(0, 2'000'000);
      const int64_t count = rng.UniformInt(64, 512);
      for (int64_t i = 0; i < count; ++i) {
        const int64_t when = start + rng.UniformInt(0, 4'000);
        push_at(now, when);
      }
    } else if (u < 0.33 || reference.empty()) {
      // A fixed delay; one time in eight from an earlier instant, and one
      // in eight from a later one, placed as if scheduled there (now
      // itself one time in three, where it ties with plain pushes).
      const size_t k = static_cast<size_t>(rng.UniformInt(0, 2));
      const double from = rng.UniformDouble();
      if (from < 0.125) {
        const int64_t at =
            std::max<int64_t>(0, now - rng.UniformInt(1, 2'000'000));
        fixed[k].push_back(push_at(at, at + kFixedDelays[k]));
      } else if (from < 0.25) {
        const int64_t sched =
            now + (rng.UniformDouble() < 0.33 ? 0 : rng.UniformInt(0, 2'000'000));
        fixed[k].push_back(push_at(sched, sched + kFixedDelays[k]));
      } else {
        fixed[k].push_back(push_at(now, now + kFixedDelays[k]));
      }
    } else if (u < 0.60) {
      int64_t delay = 0;
      const double kind = rng.UniformDouble();
      if (kind < 0.15) {
        delay = 0;  // immediate (ties!)
      } else if (kind < 0.55) {
        delay = rng.UniformInt(1, 2'000'000);  // short: up to 2 ms
      } else if (kind < 0.90) {
        delay = rng.UniformInt(2'000'000, 2'000'000'000);  // medium
      } else {
        delay = rng.UniformInt(17'000'000'000, 60'000'000'000);  // far
      }
      const double via = rng.UniformDouble();
      if (via < 0.2) {
        push_heap_only(now + delay);
      } else if (via < 0.35) {
        // Same-time ties ordered by scheduling instant, not push order.
        push_at(now + rng.UniformInt(0, delay), now + delay);
      } else {
        push_at(now, now + delay);
      }
    } else if (u < 0.70) {
      // Cancel a fixed delay's oldest, newest or a middle pending event.
      auto& events = fixed[static_cast<size_t>(rng.UniformInt(0, 2))];
      while (!events.empty() && !reference.contains(events.front().second)) {
        events.pop_front();
      }
      while (!events.empty() && !reference.contains(events.back().second)) {
        events.pop_back();
      }
      if (!events.empty()) {
        const int64_t which = rng.UniformInt(0, 2);
        const size_t pick =
            which == 0   ? 0
            : which == 1 ? events.size() - 1
                         : static_cast<size_t>(rng.UniformInt(
                               0, static_cast<int64_t>(events.size()) - 1));
        cancel(events[pick].first, events[pick].second, step);
        events.erase(events.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else if (u < 0.78 && !live.empty()) {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      const auto [id, key] = live[pick];
      cancel(id, key, step);
      live[pick] = live.back();
      live.pop_back();
    } else if (u < 0.89) {
      auto popped = q.Pop();
      ASSERT_TRUE(popped.has_value()) << "step " << step;
      expect_min(*popped, step);
    } else {
      // A deadline within 1.5 us either side of the minimum, landing on
      // it exactly one time in seven: nullopt iff the minimum is later.
      const int64_t min_when = std::get<0>(reference.begin()->first);
      const int64_t deadline = min_when + rng.UniformInt(-3, 3) * 500;
      auto popped = q.PopDue(SimTime(deadline));
      if (min_when > deadline) {
        EXPECT_FALSE(popped.has_value()) << "step " << step;
      } else {
        ASSERT_TRUE(popped.has_value()) << "step " << step;
        expect_min(*popped, step);
      }
    }
    ASSERT_EQ(q.live_size(), reference.size()) << "step " << step;
    const std::optional<SimTime> peek = q.PeekTime();
    if (reference.empty()) {
      EXPECT_FALSE(peek.has_value()) << "step " << step;
    } else {
      ASSERT_TRUE(peek.has_value()) << "step " << step;
      EXPECT_EQ(peek->nanos(), std::get<0>(reference.begin()->first))
          << "step " << step;
    }
  }
  // Drain both; order must match exactly.
  while (auto popped = q.Pop()) {
    expect_min(*popped, -1);
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_TRUE(q.Empty());
}

// A callback runs in its slot, so it must survive the slab growing under
// it: this one schedules more than a chunk's worth of events (forcing new
// chunks and a larger slot table) and then reads its own captures.
TEST(EventQueueTest, FiringCallbackOutlivesSlabGrowth) {
  Simulator sim;
  std::array<uint64_t, 8> seen{};
  int scheduled_fired = 0;
  std::array<uint64_t, 8> words{};
  for (size_t i = 0; i < words.size(); ++i) {
    words[i] = 0x9e3779b97f4a7c15ull * (i + 1);
  }
  sim.Schedule(Duration::Micros(1), [&sim, &seen, &scheduled_fired, words]() {
    for (int i = 0; i < 300; ++i) {
      sim.Schedule(Duration::Nanos(i % 7), [&scheduled_fired]() {
        ++scheduled_fired;
      });
    }
    for (size_t i = 0; i < words.size(); ++i) {
      seen[i] = words[i];
    }
  });
  sim.Run();
  EXPECT_EQ(seen, words);
  EXPECT_EQ(scheduled_fired, 300);
}

TEST(EventQueueTest, FiringEventCannotCancelItself) {
  Simulator sim;
  EventId self;
  int runs = 0;
  bool self_cancel = true;
  self = sim.Schedule(Duration::Micros(5), [&]() {
    ++runs;
    self_cancel = sim.Cancel(self);
  });
  sim.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(self_cancel);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(EventQueueTest, ThrowingCallbackIsDestroyedAndItsSlotRecycled) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  const EventId thrower = q.Push(SimTime(1), [token]() {
    throw std::runtime_error("boom");
  });
  EXPECT_EQ(token.use_count(), 2);
  auto popped = q.Pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_THROW(q.Fire(*popped), std::runtime_error);
  EXPECT_EQ(token.use_count(), 1);  // the capture was destroyed
  // The slot went back to the free list: the next push reuses it.
  const EventId next = q.Push(SimTime(2), []() {});
  EXPECT_EQ(next.value & 0xffffffffu, thrower.value & 0xffffffffu);
  EXPECT_NE(next, thrower);
  EXPECT_EQ(q.live_size(), 1u);
}

// ---------------------------------------------------------------- inline callback

TEST(InlineCallbackTest, SmallCaptureStaysInline) {
  int hits = 0;
  int* p = &hits;
  InlineCallback cb([p]() { ++*p; });
  EXPECT_TRUE(static_cast<bool>(cb));
  EXPECT_FALSE(cb.heap_allocated());
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallbackTest, FatSchedulingCaptureStaysInline) {
  // The disk-service completion lambda captures ~72 bytes (this pointer,
  // a DiskRequest incl. a std::function, a SimTime); captures of that
  // shape must not allocate.
  struct Fat {
    uint64_t words[10];  // 80 bytes
    int* sink;
  };
  static_assert(InlineCallback::StoresInline<Fat>() || sizeof(Fat) > 88);
  int out = 0;
  Fat fat{};
  fat.words[3] = 7;
  fat.sink = &out;
  InlineCallback cb([fat]() { *fat.sink = static_cast<int>(fat.words[3]); });
  EXPECT_FALSE(cb.heap_allocated());
  cb();
  EXPECT_EQ(out, 7);
}

TEST(InlineCallbackTest, OversizedCaptureFallsBackToHeap) {
  struct Huge {
    char bytes[200];
    int* sink;
  };
  int out = 0;
  Huge huge{};
  huge.bytes[0] = 42;
  huge.sink = &out;
  InlineCallback cb([huge]() { *huge.sink = huge.bytes[0]; });
  EXPECT_TRUE(cb.heap_allocated());
  cb();
  EXPECT_EQ(out, 42);
}

TEST(InlineCallbackTest, MoveTransfersOwnershipAndDestroysCapture) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  {
    InlineCallback a([token]() {});
    token.reset();
    EXPECT_FALSE(watch.expired());  // capture keeps it alive
    InlineCallback b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());  // destroying the callback drops the capture
}

TEST(InlineCallbackTest, MoveOnlyCaptureWorks) {
  auto box = std::make_unique<int>(9);
  int out = 0;
  InlineCallback cb([box = std::move(box), &out]() { out = *box; });
  InlineCallback moved(std::move(cb));
  moved();
  EXPECT_EQ(out, 9);
}

TEST(InlineCallbackTest, MoveAssignmentReleasesPreviousCapture) {
  auto first = std::make_shared<int>(1);
  std::weak_ptr<int> watch = first;
  InlineCallback cb([first]() {});
  first.reset();
  EXPECT_FALSE(watch.expired());
  cb = InlineCallback([]() {});
  EXPECT_TRUE(watch.expired());
  cb();  // replacement callable runs fine
}

TEST(InlineCallbackTest, NullStates) {
  InlineCallback empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  InlineCallback null2(nullptr);
  EXPECT_FALSE(static_cast<bool>(null2));
  EXPECT_FALSE(empty.heap_allocated());
}

// ---------------------------------------------------------------- simulator

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen;
  sim.Schedule(Duration::Millis(5), [&]() { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen.nanos(), Duration::Millis(5).nanos());
  EXPECT_EQ(sim.Now().nanos(), Duration::Millis(5).nanos());
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<int64_t> times;
  sim.Schedule(Duration::Millis(1), [&]() {
    times.push_back(sim.Now().nanos());
    sim.Schedule(Duration::Millis(1), [&]() {
      times.push_back(sim.Now().nanos());
    });
  });
  sim.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[1] - times[0], Duration::Millis(1).nanos());
}

TEST(SimulatorTest, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Duration::Millis(1), [&]() { ++fired; });
  sim.Schedule(Duration::Millis(10), [&]() { ++fired; });
  sim.RunUntil(SimTime::Zero() + Duration::Millis(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now().nanos(), Duration::Millis(5).nanos());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  SimTime fired_at;
  sim.Schedule(Duration::Millis(1), [&]() {
    sim.Schedule(Duration::Millis(-5), [&]() {
      fired = true;
      fired_at = sim.Now();
    });
  });
  sim.Run();
  EXPECT_TRUE(fired);
  // Clamped to the scheduling instant, never into the past.
  EXPECT_EQ(fired_at.nanos(), Duration::Millis(1).nanos());
}

TEST(SimulatorTest, NegativeScheduleAtClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(Duration::Millis(2), [&]() {
    sim.ScheduleAt(SimTime(0), [&]() { fired = true; });
  });
  sim.RunUntil(SimTime(Duration::Millis(2).nanos()));
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now().nanos(), Duration::Millis(2).nanos());
}

TEST(SimulatorTest, CancelFromFiringCallbackSuppressesSibling) {
  Simulator sim;
  EventId victim;
  bool victim_fired = false;
  bool cancel_ok = false;
  sim.Schedule(Duration::Millis(1), [&]() { cancel_ok = sim.Cancel(victim); });
  victim = sim.Schedule(Duration::Millis(1), [&]() { victim_fired = true; });
  sim.Run();
  EXPECT_TRUE(cancel_ok);
  EXPECT_FALSE(victim_fired);
}

TEST(SimulatorTest, FireDigestIsOrderSensitiveAndReproducible) {
  auto run = [](bool swap) {
    Simulator sim(17);
    int n = 0;
    auto cb = [&]() { ++n; };
    if (swap) {
      sim.Schedule(Duration::Millis(2), cb);
      sim.Schedule(Duration::Millis(1), cb);
    } else {
      sim.Schedule(Duration::Millis(1), cb);
      sim.Schedule(Duration::Millis(2), cb);
    }
    sim.Schedule(Duration::Millis(3), cb);
    sim.Run();
    return sim.fire_digest();
  };
  EXPECT_EQ(run(false), run(false));  // reproducible
  // Same fire times but different sequence numbers -> different digest:
  // the digest witnesses schedule order, not just fire times.
  EXPECT_NE(run(false), run(true));
}

TEST(SimulatorTest, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.Schedule(Duration::Millis(1), [&]() { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunStepsFiresExactly) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(Duration::Millis(i + 1), [&]() { ++fired; });
  }
  EXPECT_EQ(sim.RunSteps(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RequestStopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Duration::Millis(1), [&]() {
    ++fired;
    sim.RequestStop();
  });
  sim.Schedule(Duration::Millis(2), [&]() { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, MaxEventsGuardThrows) {
  Simulator sim;
  sim.set_max_events(100);
  std::function<void()> loop = [&]() { sim.Schedule(Duration::Nanos(1), loop); };
  sim.Schedule(Duration::Nanos(1), loop);
  EXPECT_THROW(sim.Run(), std::runtime_error);
}

// ---------------------------------------------------------------- stats

TEST(OnlineStatsTest, MomentsMatchClosedForm) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStatsTest, MergeEqualsCombinedStream) {
  Rng rng(5);
  OnlineStats all;
  OnlineStats a;
  OnlineStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(3.0, 1.5);
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(HistogramTest, QuantileBoundedError) {
  Histogram h;
  std::vector<double> values;
  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.Pareto(100.0, 1.2);
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = values[static_cast<size_t>(q * (values.size() - 1))];
    const double approx = h.ValueAtQuantile(q);
    // Log-linear buckets with 32 sub-buckets: <= ~3.2% relative error,
    // allow slack for the ceil-vs-index convention.
    EXPECT_NEAR(approx, exact, exact * 0.05) << "q=" << q;
  }
}

TEST(HistogramTest, SmallValuesExact) {
  Histogram h;
  for (int i = 0; i < 10; ++i) {
    h.Add(i);
  }
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(1.0), 9.0);
}

TEST(HistogramTest, FractionAtOrBelow) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Add(i);
  }
  EXPECT_NEAR(h.FractionAtOrBelow(50.0), 0.5, 0.02);
  EXPECT_DOUBLE_EQ(h.FractionAtOrBelow(1000.0), 1.0);
  EXPECT_NEAR(h.FractionAtOrBelow(0.0), 0.0, 0.011);
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 100; ++i) {
    a.Add(10.0);
    b.Add(1000.0);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_DOUBLE_EQ(a.min(), 10.0);
  EXPECT_DOUBLE_EQ(a.max(), 1000.0);
  EXPECT_NEAR(a.ValueAtQuantile(0.25), 10.0, 1.0);
}

TEST(HistogramTest, MergeMatchesCombinedStream) {
  // Merging two histograms must be indistinguishable from one histogram
  // that saw both streams: identical buckets, so identical statistics —
  // the property sharded aggregation (sweep cells, per-window sketches)
  // relies on.
  Histogram a;
  Histogram b;
  Histogram combined;
  Rng rng(93);
  for (int i = 0; i < 4000; ++i) {
    const double va = rng.Pareto(50.0, 1.3);
    const double vb = rng.UniformDouble(10.0, 5000.0);
    a.Add(va);
    combined.Add(va);
    b.Add(vb);
    combined.Add(vb);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  // Sums accumulate in different orders; bucket counts (and therefore
  // every quantile) are exactly equal, the sum only to rounding.
  EXPECT_NEAR(a.sum(), combined.sum(), combined.sum() * 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  for (double q : {0.05, 0.5, 0.9, 0.95, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(a.ValueAtQuantile(q), combined.ValueAtQuantile(q))
        << "q=" << q;
  }
}

// ---------------------------------------------------------------- metrics

TEST(MetricsTest, CountersAccumulate) {
  MetricRegistry reg;
  reg.GetCounter("x").Increment();
  reg.GetCounter("x").Increment(2.5);
  EXPECT_DOUBLE_EQ(reg.GetCounter("x").value(), 3.5);
}

TEST(MetricsTest, SameNameSameInstance) {
  MetricRegistry reg;
  Counter& a = reg.GetCounter("c");
  Counter& b = reg.GetCounter("c");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsTest, SnapshotAndDump) {
  MetricRegistry reg;
  reg.GetCounter("writes").Increment(7);
  reg.GetGauge("depth").Set(3);
  reg.GetHistogram("lat").Add(100.0);
  const auto snap = reg.Snap();
  EXPECT_DOUBLE_EQ(snap.counters.at("writes"), 7.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("depth"), 3.0);
  EXPECT_NE(snap.histogram_summaries.at("lat").find("n=1"), std::string::npos);
  EXPECT_NE(reg.Dump().find("writes 7"), std::string::npos);
}

TEST(MetricsTest, ResetAllClears) {
  MetricRegistry reg;
  reg.GetCounter("c").Increment(5);
  reg.GetHistogram("h").Add(1.0);
  reg.GetGauge("g").Set(9.0);
  reg.ResetAll();
  EXPECT_DOUBLE_EQ(reg.GetCounter("c").value(), 0.0);
  EXPECT_EQ(reg.GetHistogram("h").count(), 0u);
  EXPECT_DOUBLE_EQ(reg.GetGauge("g").value(), 0.0);
}

TEST(MetricsTest, SnapshotCarriesHistogramStats) {
  MetricRegistry reg;
  for (int i = 1; i <= 100; ++i) {
    reg.GetHistogram("lat").Add(static_cast<double>(i));
  }
  const auto snap = reg.Snap();
  ASSERT_EQ(snap.histograms.count("lat"), 1u);
  const auto& h = snap.histograms.at("lat");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_NEAR(h.mean, 50.5, 1e-9);
  EXPECT_GE(h.p95, h.p50);
  EXPECT_GE(h.p99, h.p95);
}

// ValueAtQuantile edge semantics are pinned to match RepStats/Summarize:
// an empty histogram reports 0 everywhere, a single sample reports itself
// at every quantile, and results never escape [min, max].
TEST(HistogramTest, ValueAtQuantileEmptyIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.P999(), 0.0);
}

TEST(HistogramTest, ValueAtQuantileSingleSampleIsExactEverywhere) {
  Histogram h;
  h.Add(1234.5);
  for (double q : {0.0, 0.01, 0.5, 0.95, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(h.ValueAtQuantile(q), 1234.5) << "q=" << q;
  }
}

TEST(HistogramTest, ValueAtQuantileTwoSamplesSplitAtMedian) {
  Histogram h;
  h.Add(10.0);
  h.Add(1000.0);
  // Nearest-rank: ceil(q*2) = 1 for q <= 0.5 (the low sample's bucket),
  // 2 above (the high sample's bucket, clamped to max).
  EXPECT_NEAR(h.ValueAtQuantile(0.5), 10.0, 10.0 * 0.05);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(0.51), 1000.0);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(1.0), 1000.0);
}

TEST(HistogramTest, ValueAtQuantileClampsToObservedRange) {
  Histogram h;
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    h.Add(rng.UniformDouble(50.0, 150.0));
  }
  for (double q : {0.0, 0.001, 0.5, 0.999, 1.0}) {
    const double v = h.ValueAtQuantile(q);
    EXPECT_GE(v, h.min()) << "q=" << q;
    EXPECT_LE(v, h.max()) << "q=" << q;
  }
}

TEST(HistogramTest, P999TracksExtremeTail) {
  Histogram h;
  // 1000 fast ops at ~1ms, 2 outliers at ~1s: p99 stays fast, p999 sees
  // the outliers — the property SloTracker's percentile columns rely on.
  for (int i = 0; i < 1000; ++i) {
    h.Add(1e6);
  }
  h.Add(1e9);
  h.Add(1e9);
  EXPECT_LT(h.P99(), 2e6);
  EXPECT_GT(h.P999(), 0.9e9);
}

// ------------------------------------------ event queue mid-run ordering

TEST(EventQueueDueRingTest, CancelInDueRingIsSkippedWithoutReordering) {
  Simulator sim;
  std::vector<int> fired;
  // Three events at one instant, plus one later event. After the first
  // fires, the middle one is cancelled while its same-time neighbour is
  // still pending: it must never fire, and the survivors keep their
  // scheduling order.
  sim.Schedule(Duration::Micros(50), [&] { fired.push_back(1); });
  EventId doomed =
      sim.Schedule(Duration::Micros(50), [&] { fired.push_back(2); });
  sim.Schedule(Duration::Micros(50), [&] { fired.push_back(3); });
  sim.Schedule(Duration::Micros(300), [&] { fired.push_back(4); });
  sim.RunSteps(1);
  ASSERT_EQ(fired, (std::vector<int>{1}));
  EXPECT_TRUE(sim.Cancel(doomed));
  EXPECT_FALSE(sim.Cancel(doomed));  // stale handle
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 4}));
}

TEST(EventQueueDueRingTest, ZeroDelayPushBeatsDueEntryAtLaterTime) {
  Simulator sim;
  std::vector<int> fired;
  sim.Schedule(Duration::Micros(20), [&] {
    fired.push_back(1);
    // Scheduled mid-run at now+0: must fire before the 25 us event that
    // was scheduled first, because time orders before scheduling order.
    sim.Schedule(Duration::Zero(), [&] { fired.push_back(2); });
  });
  sim.Schedule(Duration::Micros(25), [&] { fired.push_back(3); });
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace fst

// Event-core microbenchmarks: the schedule/cancel/fire hot path that every
// experiment in the tree funnels through.
//
// The queue-level cases run twice — once against LegacyEventQueue (a
// verbatim copy of the pre-overhaul implementation: lazy-cancellation
// binary heap over std::function callbacks) and once against the
// production EventQueue (chunked slot slab + generation-stamped ids,
// index-tracked 4-ary heap, callbacks built and fired in place). The
// legacy copy lives only here, as the permanent measurement baseline; the
// speedup is the ratio of the paired rows. Both queues pop and fire with
// the same Pop()/Fire() pair. The simulator-level cases schedule through
// Simulator::Schedule, so fixed-delay lanes can form.
// Shape properties CI asserts: cancel_heavy/new beats the legacy O(n)
// cancel scan; hedge_storm/new's per-event cost stays within 2x from a
// 512- to an 8192-event burst (a structure whose per-event cost grows
// with the burst's population fails it); and fixed_delay_streams' stays
// within 1.25x from 64 to 4096 live events (a queue whose fixed-delay
// events all pass through the heap fails it).
//
// Run:            ./bench_simcore
// JSON telemetry: FST_TELEMETRY_DIR=dir ./bench_simcore   (BENCH_simcore.json)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "src/simcore/event_queue.h"
#include "src/simcore/rng.h"
#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {
namespace {

// ---------------------------------------------------------------- legacy
// The pre-overhaul EventQueue, kept verbatim as the measurement baseline.
// Cancellation is lazy: an O(n) scan marks the id, and cancelled entries
// stay in the heap until popped. Every callback is a std::function.
class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;

  EventId Push(SimTime when, Callback cb) {
    const uint64_t id = next_id_++;
    heap_.push_back(Entry{when, next_seq_++, id, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    return EventId{id};
  }

  bool Cancel(EventId id) {
    if (!id.IsValid() || id.value >= next_id_) {
      return false;
    }
    for (const Entry& e : heap_) {
      if (e.id == id.value) {
        if (cancelled_.insert(id.value).second) {
          --live_;
          return true;
        }
        return false;
      }
    }
    return false;
  }

  struct Fired {
    SimTime when;
    Callback cb;
  };
  void Fire(Fired& fired) { fired.cb(); }
  std::optional<Fired> Pop() {
    DropCancelledHead();
    if (heap_.empty()) {
      return std::nullopt;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    --live_;
    return Fired{e.when, std::move(e.cb)};
  }

  size_t live_size() const { return live_; }

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    uint64_t id;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  void DropCancelledHead() {
    while (!heap_.empty()) {
      auto it = cancelled_.find(heap_.front().id);
      if (it == cancelled_.end()) {
        return;
      }
      cancelled_.erase(it);
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  std::vector<Entry> heap_;
  std::unordered_set<uint64_t> cancelled_;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  size_t live_ = 0;
};

// A capture representative of real call sites (disk completion lambdas
// carry a DiskRequest: ~56-72 bytes). Large enough that std::function heap
// allocates; small enough that InlineCallback stores it inline.
struct FatCapture {
  uint64_t a = 1;
  uint64_t b = 2;
  uint64_t c = 3;
  uint64_t d = 4;
  uint64_t e = 5;
  uint64_t* sink = nullptr;
};

// The lambda itself, so each queue builds its own callback type from it
// (EventQueue in the event's slot).
auto MakeCallback(uint64_t* sink) {
  FatCapture cap;
  cap.sink = sink;
  return [cap]() { *cap.sink += cap.a + cap.b + cap.c + cap.d + cap.e; };
}

// Mixed-horizon delay, ns: the distribution the storage stack generates.
// 10% immediate, 40% short (50us-2ms: disk service, hedge delays), 40%
// medium (2-500ms: SCSI timeouts, detector periods), 10% far (30-300s:
// availability horizons).
int64_t MixedDelayNs(Rng& rng) {
  const double u = rng.UniformDouble();
  if (u < 0.10) {
    return 0;
  }
  if (u < 0.50) {
    return rng.UniformInt(50'000, 2'000'000);
  }
  if (u < 0.90) {
    return rng.UniformInt(2'000'000, 500'000'000);
  }
  return rng.UniformInt(30'000'000'000, 300'000'000'000);
}

// ------------------------------------------------------------ schedule/fire
// Steady state at `live` pending events, mixed-horizon delays: pop the
// earliest event, fire it, schedule a replacement. One item = one
// pop+fire+push cycle.
template <typename Q>
void BM_ScheduleFire(benchmark::State& state) {
  const int64_t live = state.range(0);
  Q q;
  Rng rng(42);
  uint64_t sink = 0;
  int64_t now = 0;
  for (int64_t i = 0; i < live; ++i) {
    q.Push(SimTime(now + MixedDelayNs(rng)), MakeCallback(&sink));
  }
  for (auto _ : state) {
    auto fired = q.Pop();
    now = std::max(now, fired->when.nanos());
    q.Fire(*fired);
    q.Push(SimTime(now + MixedDelayNs(rng)), MakeCallback(&sink));
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}

// ------------------------------------------------------------- cancel heavy
// The timeout/hedge pattern: every operation arms a guard timer that is
// almost always cancelled before it fires. Steady state at `live` armed
// timers; one item = one arm + one cancel (of the oldest armed timer),
// with a drain pop every 64 items so time advances.
template <typename Q>
void BM_CancelHeavy(benchmark::State& state) {
  const int64_t live = state.range(0);
  Q q;
  Rng rng(7);
  uint64_t sink = 0;
  int64_t now = 0;
  std::vector<EventId> armed;
  armed.reserve(static_cast<size_t>(live) + 1);
  size_t oldest = 0;
  for (int64_t i = 0; i < live; ++i) {
    armed.push_back(q.Push(SimTime(now + 10'000'000 + rng.UniformInt(0, 1'000'000)),
                           MakeCallback(&sink)));
  }
  int64_t tick = 0;
  for (auto _ : state) {
    armed.push_back(q.Push(SimTime(now + 10'000'000 + rng.UniformInt(0, 1'000'000)),
                           MakeCallback(&sink)));
    benchmark::DoNotOptimize(q.Cancel(armed[oldest]));
    ++oldest;
    if (oldest == armed.size()) {
      armed.clear();
      oldest = 0;
    }
    if ((++tick & 63) == 0) {
      // Let a survivor fire so the clock advances like a real run.
      auto fired = q.Pop();
      if (fired.has_value()) {
        now = std::max(now, fired->when.nanos());
        q.Fire(*fired);
        armed.push_back(q.Push(
            SimTime(now + 10'000'000 + rng.UniformInt(0, 1'000'000)),
            MakeCallback(&sink)));
      }
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}

// -------------------------------------------------------------- hedge storm
// Bursts of near-simultaneous short-delay events — what a hedging layer
// emits when a component stutters: `burst` events land within a few us of
// each other, all fire, repeat. One item = one scheduled+fired event.
template <typename Q>
void BM_HedgeStorm(benchmark::State& state) {
  const int64_t burst = state.range(0);
  Q q;
  Rng rng(11);
  uint64_t sink = 0;
  int64_t now = 0;
  int64_t items = 0;
  while (state.KeepRunningBatch(burst)) {
    for (int64_t i = 0; i < burst; ++i) {
      q.Push(SimTime(now + 2'000'000 + rng.UniformInt(0, 4'000)),
             MakeCallback(&sink));
    }
    while (auto fired = q.Pop()) {
      now = std::max(now, fired->when.nanos());
      q.Fire(*fired);
    }
    items += burst;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(items);
}

// ------------------------------------------------------------ mixed horizon
// Fill-then-drain across the full delay spectrum at a deep (65,536-event)
// queue. One item = one scheduled+fired event.
template <typename Q>
void BM_MixedHorizonFillDrain(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(23);
  uint64_t sink = 0;
  while (state.KeepRunningBatch(n)) {
    Q q;
    int64_t now = 0;
    for (int64_t i = 0; i < n; ++i) {
      q.Push(SimTime(now + MixedDelayNs(rng)), MakeCallback(&sink));
    }
    while (auto fired = q.Pop()) {
      now = std::max(now, fired->when.nanos());
      q.Fire(*fired);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}

// -------------------------------------------------------- end-to-end loop
// The whole simulator loop (clock, digest, dispatch) on a self-refilling
// event chain — the in-situ cost a workload actually observes.
void BM_SimulatorSelfRefill(benchmark::State& state) {
  const int64_t live = state.range(0);
  Simulator sim(5);
  uint64_t sink = 0;
  Rng delays = sim.rng().Fork();
  // Each fired event reschedules itself at a mixed-horizon delay.
  struct Chain {
    Simulator* sim;
    Rng* rng;
    uint64_t* sink;
    void operator()() const {
      *sink += 1;
      sim->Schedule(Duration::Nanos(MixedDelayNs(*rng)), *this);
    }
  };
  for (int64_t i = 0; i < live; ++i) {
    sim.Schedule(Duration::Nanos(MixedDelayNs(delays)), Chain{&sim, &delays, &sink});
  }
  for (auto _ : state) {
    sim.RunSteps(1024);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1024);
}

// ------------------------------------------------------ fixed-delay streams
// The serving cell's shape: `live` self-rescheduling chains, 80% of whose
// reschedules use one of two fixed delays — 65% a 16.4 us switch stage,
// 15% a 1 ms compute — and the rest a uniform delay up to 200 us. Through
// Simulator::Schedule, so the queue sees each event's delay. One item =
// one fired event.
void BM_FixedDelayStreams(benchmark::State& state) {
  const int64_t live = state.range(0);
  Simulator sim(9);
  uint64_t sink = 0;
  Rng delays = sim.rng().Fork();
  struct Chain {
    Simulator* sim;
    Rng* rng;
    uint64_t* sink;
    void operator()() const {
      *sink += 1;
      const double u = rng->UniformDouble();
      const Duration delay =
          u < 0.65   ? Duration::Nanos(16'400)
          : u < 0.80 ? Duration::Millis(1)
                     : Duration::Nanos(rng->UniformInt(0, 200'000));
      sim->Schedule(delay, *this);
    }
  };
  for (int64_t i = 0; i < live; ++i) {
    sim.Schedule(Duration::Nanos(delays.UniformInt(0, 1'000'000)),
                 Chain{&sim, &delays, &sink});
  }
  for (auto _ : state) {
    sim.RunSteps(1024);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1024);
}

BENCHMARK_TEMPLATE(BM_ScheduleFire, LegacyEventQueue)
    ->Name("schedule_fire/legacy")->Arg(1024)->Arg(16384);
BENCHMARK_TEMPLATE(BM_ScheduleFire, EventQueue)
    ->Name("schedule_fire/new")->Arg(1024)->Arg(16384);

BENCHMARK_TEMPLATE(BM_CancelHeavy, LegacyEventQueue)
    ->Name("cancel_heavy/legacy")->Arg(1024)->Arg(16384);
BENCHMARK_TEMPLATE(BM_CancelHeavy, EventQueue)
    ->Name("cancel_heavy/new")->Arg(1024)->Arg(16384);

BENCHMARK_TEMPLATE(BM_HedgeStorm, LegacyEventQueue)
    ->Name("hedge_storm/legacy")->Arg(512)->Arg(8192);
BENCHMARK_TEMPLATE(BM_HedgeStorm, EventQueue)
    ->Name("hedge_storm/new")->Arg(512)->Arg(8192);

BENCHMARK_TEMPLATE(BM_MixedHorizonFillDrain, LegacyEventQueue)
    ->Name("mixed_horizon/legacy")->Arg(65536);
BENCHMARK_TEMPLATE(BM_MixedHorizonFillDrain, EventQueue)
    ->Name("mixed_horizon/new")->Arg(65536);

BENCHMARK(BM_SimulatorSelfRefill)
    ->Name("simulator_self_refill")->Arg(4096);

BENCHMARK(BM_FixedDelayStreams)
    ->Name("fixed_delay_streams")->Arg(64)->Arg(4096);

}  // namespace
}  // namespace fst

FST_BENCH_MAIN(simcore);

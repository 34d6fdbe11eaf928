// Columnar client/op core — the per-op-overhead benchmarks behind the
// million-client serving claim.
//
// Micro benches isolate the three costs the columnar front end removes
// from the per-op path, each against the implementation it replaced:
//   * key sampling       — guide-table Zipf (O(1) expected) vs the old
//                          full binary search (O(log n));
//   * arrival generation — windowed SoA fill vs one heap-allocating
//                          closure scheduled per arrival;
//   * op-state churn     — slab OpTable allocate/free vs the old
//                          shared_ptr<op-state> + capturing-callback pair.
// Macro benches then run the whole serving stack: the E22-style cell
// (sim_ops_per_sec counter — node compute and the switch dominate it),
// and a many-client attribution cell showing per-client tallies stay
// cheap at population scale.
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/arrivals.h"
#include "src/cluster/fleet/fleet.h"
#include "src/cluster/fleet/op_table.h"
#include "src/cluster/selector.h"
#include "src/simcore/rng.h"

namespace fst {
namespace {

// ---------------------------------------------------------------------------
// Key sampling: guide-table Zipf vs the old full binary search
// ---------------------------------------------------------------------------

// The pre-guide-table sampler, kept verbatim as the differential baseline
// (tests/fleet_test.cc pins bit-parity between the two).
class LegacyZipf {
 public:
  LegacyZipf(int64_t n, double s) {
    double total = 0.0;
    for (int64_t rank = 0; rank < n; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }
  int64_t Sample(Rng& rng) const {
    const double u = rng.UniformDouble();
    size_t lo = 0;
    size_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<int64_t>(lo);
  }

 private:
  std::vector<double> cdf_;
};

constexpr int64_t kKeySpace = 1 << 20;  // ~1M keys, the serving-scale space

void BM_ZipfLegacyBinarySearch(benchmark::State& state) {
  LegacyZipf zipf(kKeySpace, 1.1);
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfLegacyBinarySearch);

void BM_ZipfGuideTable(benchmark::State& state) {
  ZipfGenerator zipf(kKeySpace, 1.1);
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfGuideTable);

// ---------------------------------------------------------------------------
// Arrival generation: windowed SoA fill vs per-arrival closure scheduling
// ---------------------------------------------------------------------------

constexpr double kGenRate = 1e6;  // 1M arrivals/sec of simulated time

// The legacy shape: every arrival costs one scheduled std::function (heap
// capture) that draws gap + key + kind and reschedules itself.
void BM_ArrivalsPerEventClosures(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim(7);
    Rng arrival = sim.rng().Fork();
    Rng key = sim.rng().Fork();
    ZipfGenerator zipf(kKeySpace, 1.1);
    const SimTime horizon = SimTime::Zero() + Duration::Seconds(1.0);
    int64_t issued = 0;
    std::function<void()> next = [&]() {
      const SimTime at =
          sim.Now() + Duration::Seconds(arrival.Exponential(1.0 / kGenRate));
      if (at > horizon) {
        return;
      }
      sim.ScheduleAt(at, [&]() {
        benchmark::DoNotOptimize(zipf.Sample(key));
        benchmark::DoNotOptimize(key.UniformDouble() < 0.9);
        ++issued;
        next();
      });
    };
    next();
    sim.Run();
    state.SetItemsProcessed(state.items_processed() + issued);
  }
}
BENCHMARK(BM_ArrivalsPerEventClosures)->Unit(benchmark::kMillisecond);

// The columnar shape: the same three draw streams filled window-at-a-time
// into SoA columns, no event queue in the loop.
void BM_ArrivalsBatchedWindows(benchmark::State& state) {
  const size_t window = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim(7);
    FleetParams fp;
    fp.arrivals_per_sec = kGenRate;
    fp.run_for = Duration::Seconds(1.0);
    fp.read_fraction = 0.9;
    fp.key_space = kKeySpace;
    fp.zipf_s = 1.1;
    ArrivalGenerator gen(sim, fp, ArrivalMode::kPoisson, {}, 0);
    ArrivalBatch batch;
    const SimTime horizon = sim.Now() + fp.run_for;
    int64_t issued = 0;
    while (gen.FillWindow(batch, window, horizon) || batch.size() > 0) {
      issued += static_cast<int64_t>(batch.size());
      benchmark::DoNotOptimize(batch.key.data());
    }
    state.SetItemsProcessed(state.items_processed() + issued);
  }
}
BENCHMARK(BM_ArrivalsBatchedWindows)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Op-state churn: slab OpTable vs shared_ptr op state + capturing callback
// ---------------------------------------------------------------------------

constexpr int kChurnDepth = 1024;  // in-flight ops held at steady state
constexpr int kChurnNodes = 16;

// What KvService used to do per op+attempt: heap-allocate shared op state
// and a capturing std::function, then rank with by-value vectors —
// ShardMap::ReplicasFor returning a fresh vector and Rank allocating its
// result (plus scoring scratch) on every attempt. Retires the oldest op
// each step to hold depth constant.
void BM_AttemptBookkeepingLegacy(benchmark::State& state) {
  struct OpState {
    uint64_t key = 0;
    uint64_t version = 0;
    int32_t attempts = 0;
    bool done = false;
  };
  ShardMap shard(kChurnNodes, {64, 2});
  ReplicaSelector sel(RouteMode::kQueueWeighted, kChurnNodes, Rng(9));
  const ReplicaSelector::DepthFn depth = [](int node) { return node % 3; };
  std::vector<std::pair<std::shared_ptr<OpState>, std::function<void(bool)>>>
      live(kChurnDepth);
  uint64_t k = 0;
  size_t head = 0;
  for (auto _ : state) {
    auto op = std::make_shared<OpState>();
    op->key = k++;
    std::function<void(bool)> done = [op](bool ok) { op->done = ok; };
    const std::vector<int> replicas = shard.ReplicasFor(op->key);
    std::vector<int> ranked = sel.Rank(replicas, depth);
    benchmark::DoNotOptimize(ranked.data());
    if (live[head].second) {
      live[head].second(true);
    }
    live[head] = {std::move(op), std::move(done)};
    head = (head + 1) % kChurnDepth;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttemptBookkeepingLegacy);

// The columnar op path: one slab row per op (generation-stamped id, no
// allocation after the high-water mark), replica lookup and ranking into
// reused scratch buffers — the shape KvService now runs.
void BM_AttemptBookkeepingColumnar(benchmark::State& state) {
  ShardMap shard(kChurnNodes, {64, 2});
  ReplicaSelector sel(RouteMode::kQueueWeighted, kChurnNodes, Rng(9));
  const ReplicaSelector::DepthFn depth = [](int node) { return node % 3; };
  OpTable table;
  std::vector<int> replicas_scratch;
  std::vector<int> ranked_scratch;
  std::vector<OpTable::Id> live(kChurnDepth, OpTable::kInvalidId);
  uint64_t k = 0;
  size_t head = 0;
  for (auto _ : state) {
    const OpTable::Id id = table.Allocate();
    table.key[OpTable::RawSlot(id)] = k++;
    shard.ReplicasFor(k, replicas_scratch);
    sel.RankInto(replicas_scratch, depth, ranked_scratch);
    benchmark::DoNotOptimize(ranked_scratch.data());
    if (live[head] != OpTable::kInvalidId) {
      table.Free(live[head]);
    }
    live[head] = id;
    head = (head + 1) % kChurnDepth;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttemptBookkeepingColumnar);

// ---------------------------------------------------------------------------
// The whole client/op core in isolation: both shapes driven through the
// simulator, no KvService behind them. This is the subsystem the columnar
// rebuild replaced: arrival generation + op-state bookkeeping + completion
// delivery into the SloTracker.
// ---------------------------------------------------------------------------

constexpr double kCoreRate = 1e6;
constexpr double kCoreSeconds = 0.5;

// Legacy shape: one self-rescheduling heap closure per arrival; per op a
// shared_ptr op state + capturing std::function completion; SLO recorded
// inline at each completion.
void BM_ClientOpCoreLegacy(benchmark::State& state) {
  struct OpState {
    uint64_t key = 0;
    SimTime t0;
  };
  int64_t issued = 0;
  for (auto _ : state) {
    Simulator sim(7);
    Rng arrival = sim.rng().Fork();
    Rng key_rng = sim.rng().Fork();
    ZipfGenerator zipf(kKeySpace, 1.1);
    SloTracker slo(Duration::Millis(300));
    const SimTime horizon = SimTime::Zero() + Duration::Seconds(kCoreSeconds);
    std::function<void()> next = [&]() {
      const SimTime at =
          sim.Now() + Duration::Seconds(arrival.Exponential(1.0 / kCoreRate));
      if (at > horizon) {
        return;
      }
      sim.ScheduleAt(at, [&]() {
        auto op = std::make_shared<OpState>();
        op->key = static_cast<uint64_t>(zipf.Sample(key_rng));
        benchmark::DoNotOptimize(key_rng.UniformDouble() < 0.9);
        op->t0 = sim.Now();
        slo.RecordArrival();
        std::function<void(bool)> done = [&slo, op](bool) {
          benchmark::DoNotOptimize(op->key);
          slo.RecordAck(Duration::Micros(50), 1);
        };
        done(true);
        ++issued;
        next();
      });
    };
    next();
    sim.Run();
  }
  state.SetItemsProcessed(issued);
}
BENCHMARK(BM_ClientOpCoreLegacy)->Unit(benchmark::kMillisecond);

// Columnar shape: windowed SoA arrivals walked by the BatchSequencer's
// inline events, slab op rows, SLO recorded at each completion and the
// {tag, outcome} records coalesced through the ring.
void BM_ClientOpCoreColumnar(benchmark::State& state) {
  int64_t issued = 0;
  for (auto _ : state) {
    Simulator sim(7);
    FleetParams fp;
    fp.arrivals_per_sec = kCoreRate;
    fp.run_for = Duration::Seconds(kCoreSeconds);
    fp.read_fraction = 0.9;
    fp.key_space = kKeySpace;
    fp.zipf_s = 1.1;
    ArrivalGenerator gen(sim, fp, ArrivalMode::kPoisson, {}, 0);
    ArrivalBatch batch;
    OpTable ops;
    CompletionRing ring;
    std::vector<CompletionRecord> drained;
    SloTracker slo(Duration::Millis(300));
    const SimTime horizon = sim.Now() + fp.run_for;
    BatchSequencer seq(sim);
    seq.Start(
        &batch.at,
        [&](size_t i) {
          slo.RecordArrival();
          const OpTable::Id id = ops.Allocate();
          const int64_t slot = ops.SlotOf(id);
          ops.key[static_cast<size_t>(slot)] = batch.key[i];
          ops.t0[static_cast<size_t>(slot)] = sim.Now();
          slo.RecordAck(Duration::Micros(50), 1);
          ring.Append(CompletionRecord{batch.client[i], SloOutcome::kAck});
          ops.Free(id);
          ++issued;
        },
        [&]() -> size_t {
          ring.SwapDrain(drained);
          gen.FillWindow(batch, 4096, horizon);
          return batch.size();
        });
    sim.Run();
    ring.SwapDrain(drained);
  }
  state.SetItemsProcessed(issued);
}
BENCHMARK(BM_ClientOpCoreColumnar)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// End to end: the E22-style serving cell
// ---------------------------------------------------------------------------

struct ServeCellOut {
  int64_t ops_issued = 0;
  double goodput_per_sec = 0.0;
  uint64_t events = 0;
};

ServeCellOut RunServeCell(double lambda, double seconds, uint32_t num_clients,
                          uint64_t seed) {
  Simulator sim(seed);
  ClusterParams cp;
  cp.nodes = 4;
  cp.shard.replication = 2;
  cp.node.cpu_rate = 1e6;
  cp.read_work = 10000.0;
  cp.admission.max_outstanding_per_node = 24;
  cp.slo_deadline = Duration::Millis(300);
  cp.route = RouteMode::kQueueWeighted;
  KvService svc(sim, cp, std::make_unique<ProportionalSharePolicy>(8.0));
  svc.node(0)->AttachModulator(std::make_shared<ConstantFactorModulator>(2.0));

  ColumnarFleetParams cfp;
  cfp.base.arrivals_per_sec = lambda;
  cfp.base.run_for = Duration::Seconds(seconds);
  cfp.base.read_fraction = 1.0;
  cfp.base.zipf_s = 1.1;
  // Default key space: the cell measures serving, not CDF construction
  // (the 1M-key sampling cost is the micros' job).
  cfp.num_clients = num_clients;

  ServeCellOut out;
  bool finished = false;
  ColumnarFleet fleet(sim, cfp);
  fleet.Run(svc, [&](const FleetResult& r) {
    out.ops_issued = r.ops_issued;
    finished = true;
  });
  sim.Run();
  if (finished) {
    out.goodput_per_sec = svc.slo().GoodputPerSec(cfp.base.run_for);
  }
  out.events = sim.events_fired();
  return out;
}

// sim_ops_per_sec is the headline: simulated serving ops retired per
// second of wall clock. The /1 suffix is the row name its committed
// baseline was recorded under.
void BM_FleetServeE22(benchmark::State& state) {
  ServeCellOut out;
  for (auto _ : state) {
    out = RunServeCell(320.0, 10.0, 0, 3);
    state.SetItemsProcessed(state.items_processed() + out.ops_issued);
  }
  state.counters["sim_ops_per_sec"] = benchmark::Counter(
      static_cast<double>(out.ops_issued),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["goodput_per_sec"] = out.goodput_per_sec;
  state.counters["events"] = static_cast<double>(out.events);
}
BENCHMARK(BM_FleetServeE22)->Arg(1)->Unit(benchmark::kMillisecond);

// A population of attributed clients: every op tagged, per-client tallies
// folded into ClientDigest. Cost per op must stay flat as clients grow —
// the attribution plane is O(population) memory, O(1) per op.
void BM_FleetManyClients(benchmark::State& state) {
  const uint32_t clients = static_cast<uint32_t>(state.range(0));
  ServeCellOut out;
  for (auto _ : state) {
    out = RunServeCell(2000.0, 2.0, clients, 3);
    state.SetItemsProcessed(state.items_processed() + out.ops_issued);
  }
  state.counters["sim_ops_per_sec"] = benchmark::Counter(
      static_cast<double>(out.ops_issued),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["clients"] = static_cast<double>(clients);
}
BENCHMARK(BM_FleetManyClients)
    ->Arg(1000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// hot_path: per-op routing and draw costs in isolation
// ---------------------------------------------------------------------------

// Replica lookup + ranking as every KvService read attempt runs it: a
// ring walk into scratch, then a queue-weighted RankInto (filter pass,
// depth divide, one tie-break draw per emitted position).
void BM_HotPathRankUncached(benchmark::State& state) {
  constexpr int kNodes = 64;
  ShardMap shard(kNodes, {64, 3});
  ReplicaSelector sel(RouteMode::kQueueWeighted, kNodes, Rng(9));
  const ReplicaSelector::DepthFn depth = [](int node) { return node & 7; };
  std::vector<int> replicas;
  std::vector<int> out;
  uint64_t key = 0;
  for (auto _ : state) {
    shard.ReplicasFor(key++, replicas);
    sel.RankInto(replicas, depth, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotPathRankUncached);

// Uniform draws, scalar Rng: one xoshiro step + float convert per call.
void BM_HotPathRngScalarDraws(benchmark::State& state) {
  Rng rng(7);
  std::array<double, 256> buf;
  for (auto _ : state) {
    for (double& d : buf) {
      d = rng.UniformDouble();
    }
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * buf.size());
}
BENCHMARK(BM_HotPathRngScalarDraws);

}  // namespace
}  // namespace fst

FST_BENCH_MAIN(fleet);

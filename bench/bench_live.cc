// Live telemetry plane overheads — the "zero-cost when disabled, cheap
// when enabled" contract, measured.
//
// Three layers:
//   * primitive costs — QuantileSketch::Add, windowed record/advance, and
//     burn-alerter ticks in isolation (ns/op; these bound what any
//     instrumented hot path can pay);
//   * ExpectationTracker end-to-end — observe + window close + peer
//     median across a small fleet, the per-window cost of the plane;
//   * serving-layer ablation — an identical KvService run with the plane
//     disabled (the seed configuration: one null-pointer test per
//     completion) vs enabled, reporting the goodput delta. The disabled
//     arm must match bench_cluster baselines within noise.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/fleet.h"
#include "src/obs/live/burn_rate.h"
#include "src/obs/live/expectation.h"
#include "src/obs/live/window_stats.h"

namespace fst {
namespace {

void BM_SketchAdd(benchmark::State& state) {
  QuantileSketch sketch;
  double v = 1.0;
  for (auto _ : state) {
    sketch.Add(v);
    v = v * 1.13 + 3.0;
    if (v > 1e12) {
      v = 1.0;
    }
  }
  benchmark::DoNotOptimize(sketch.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchAdd);

void BM_SketchMerge(benchmark::State& state) {
  QuantileSketch a, b;
  for (int i = 0; i < 4096; ++i) {
    a.Add(static_cast<double>(i * 37 % 100000));
    b.Add(static_cast<double>(i * 101 % 100000));
  }
  for (auto _ : state) {
    QuantileSketch merged = a;
    merged.Merge(b);
    benchmark::DoNotOptimize(merged.P99());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchMerge);

void BM_WindowedQuantilesRecord(benchmark::State& state) {
  WindowedQuantiles wq(Duration::Millis(250), 8);
  int64_t t = 0;
  for (auto _ : state) {
    wq.Record(SimTime(t), static_cast<double>(t % 997));
    t += 100000;  // 10k samples per window
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowedQuantilesRecord);

void BM_ExpectationWindowClose(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  ExpectationParams params;
  ExpectationTracker tracker(nodes, params);
  int64_t window = 0;
  for (auto _ : state) {
    const SimTime start(window * params.window.nanos());
    for (int n = 0; n < nodes; ++n) {
      for (int k = 0; k < 64; ++k) {
        tracker.Observe(n, start + Duration::Micros(k * 300),
                        10000.0, Duration::Micros(900 + k));
      }
    }
    ++window;
    tracker.AdvanceTo(SimTime(window * params.window.nanos()));
  }
  benchmark::DoNotOptimize(tracker.series().size());
  state.SetItemsProcessed(state.iterations() * nodes * 64);
}
BENCHMARK(BM_ExpectationWindowClose)->Arg(4)->Arg(16);

void BM_BurnAlerterTick(benchmark::State& state) {
  SloBurnAlerter alerter(BurnRateParams{});
  OutcomeCounts cum;
  int64_t t = 0;
  for (auto _ : state) {
    cum.good += 70;
    cum.bad += (t / 250000000 % 40 == 0) ? 30 : 1;
    t += 250000000;
    alerter.Tick(SimTime(t), cum);
  }
  benchmark::DoNotOptimize(alerter.raised_count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BurnAlerterTick);

// Full serving run, live plane off vs on. arg 0 = disabled, 1 = enabled.
void BM_ServeWithLivePlane(benchmark::State& state) {
  const bool live = state.range(0) != 0;
  double goodput = 0.0;
  for (auto _ : state) {
    Simulator sim(4242);
    FleetParams fp;
    fp.arrivals_per_sec = 320.0;
    fp.run_for = Duration::Seconds(8.0);
    ColumnarFleet fleet(sim, fp);
    ClusterParams cp;
    cp.live.enabled = live;
    KvService svc(sim, cp, std::make_unique<ProportionalSharePolicy>());
    svc.StartTelemetry(SimTime::Zero() + fp.run_for);
    fleet.Run(svc, [](const FleetResult&) {});
    sim.Run();
    goodput = svc.slo().GoodputPerSec(fp.run_for);
    benchmark::DoNotOptimize(goodput);
  }
  state.counters["goodput_per_sec"] = goodput;
}
BENCHMARK(BM_ServeWithLivePlane)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fst

FST_BENCH_MAIN(live)

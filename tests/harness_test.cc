// Parallel sweep harness: ThreadPool lifecycle/exception propagation,
// SweepSpec grid enumeration, and the determinism pin — the same sweep at
// 1 and 4 threads must produce identical per-cell fire_digest() vectors,
// an identical rendered ShapeReport, and byte-identical exported reports.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/analysis/experiment.h"
#include "src/devices/disk.h"
#include "src/devices/modulators.h"
#include "src/faults/perf_fault.h"
#include "src/harness/sweep.h"
#include "src/harness/thread_pool.h"
#include "src/raid/raid10.h"
#include "src/simcore/simulator.h"

namespace fst {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(),
                   [&](size_t i) { hits[i].fetch_add(1); }, 7);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndSingleElement) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> one{0};
  pool.ParallelFor(1, [&](size_t i) { one += static_cast<int>(i) + 1; });
  EXPECT_EQ(one.load(), 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [](size_t i) {
                         if (i == 37) {
                           throw std::runtime_error("cell 37 exploded");
                         }
                       }),
      std::runtime_error);
  // The pool must survive the failed job and run later work normally.
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, DestructorDrainsSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, SinglethreadPoolStillCompletesParallelFor) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.ParallelFor(100, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

// Sized by the helper alone: a pool is never started to test it.
TEST(ThreadPoolTest, PoolWorkersNeverExceedTheTasks) {
  EXPECT_EQ(PoolWorkers(100000, 50), 50);
  EXPECT_EQ(PoolWorkers(4, 160), 4);
  EXPECT_EQ(PoolWorkers(4, 4), 4);
  EXPECT_EQ(PoolWorkers(8, 1), 1);
  EXPECT_EQ(PoolWorkers(8, 0), 1);
  EXPECT_EQ(PoolWorkers(0, 10), 1);
  EXPECT_EQ(PoolWorkers(-3, 0), 1);
}

// --------------------------------------------------------------- SweepSpec

SweepSpec TwoAxisSpec() {
  SweepSpec spec;
  spec.name = "enumeration";
  spec.axes = {
      {"alpha", {1.0, 2.0}, {"one", "two"}},
      {"beta", {10.0, 20.0, 30.0}, {}},
  };
  spec.seeds = {7, 8};
  spec.reps = 2;
  return spec;
}

TEST(SweepSpecTest, CountsAndEnumerationOrder) {
  const SweepSpec spec = TwoAxisSpec();
  EXPECT_EQ(spec.ConfigCount(), 6u);
  EXPECT_EQ(spec.CellCount(), 24u);

  const auto points = SweepRunner::Enumerate(spec);
  ASSERT_EQ(points.size(), 24u);
  // Row-major: axes[0] outermost, then axes[1], then seed, then rep.
  EXPECT_EQ(points[0].values, (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(points[0].seed, 7u);
  EXPECT_EQ(points[0].rep, 0);
  EXPECT_EQ(points[1].rep, 1);
  EXPECT_EQ(points[2].seed, 8u);
  EXPECT_EQ(points[4].values, (std::vector<double>{1.0, 20.0}));
  EXPECT_EQ(points.back().values, (std::vector<double>{2.0, 30.0}));
  EXPECT_EQ(points.back().seed, 8u);
  EXPECT_EQ(points.back().rep, 1);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].config_index, i / 4);
  }
}

TEST(SweepSpecTest, ValueLookupAndLabels) {
  const SweepSpec spec = TwoAxisSpec();
  const CellPoint p = SweepRunner::PointAt(spec, 23);
  EXPECT_DOUBLE_EQ(p.Value("alpha"), 2.0);
  EXPECT_DOUBLE_EQ(p.Value("beta"), 30.0);
  EXPECT_THROW(p.Value("gamma"), std::out_of_range);
  EXPECT_EQ(p.Label(0), "two");
  EXPECT_EQ(p.Label(1), "30");  // label falls back to the formatted value
}

// ------------------------------------------------------------- determinism

// A miniature §3.2 cell: seeded RAID-10 write with per-request jitter so
// different seeds genuinely diverge.
CellResult MiniRaidCell(const CellPoint& point) {
  const auto kind =
      static_cast<StriperKind>(static_cast<int>(point.Value("striper")));
  DiskParams params;
  params.flat_bandwidth_mbps = 10.0;
  params.block_bytes = 65536;
  Simulator sim(point.seed);
  std::vector<std::unique_ptr<Disk>> disks;
  std::vector<Disk*> raw;
  for (int i = 0; i < 4; ++i) {
    disks.push_back(
        std::make_unique<Disk>(sim, "d" + std::to_string(i), params));
    disks.back()->AttachModulator(std::make_shared<RandomJitterModulator>(
        sim.rng().Fork(), 0.1));
    raw.push_back(disks.back().get());
  }
  disks[0]->AttachModulator(std::make_shared<ConstantFactorModulator>(
      1.0 / (point.Value("ratio_pct") / 100.0)));
  VolumeConfig config;
  config.block_bytes = 65536;
  config.striper = kind;
  Raid10Volume volume(sim, config, raw);
  CellResult r;
  volume.WriteBlocks(200, [&r](const BatchResult& res) {
    r.value = res.ThroughputMbps();
  });
  sim.Run();
  r.fire_digest = sim.fire_digest();
  r.events_fired = sim.events_fired();
  return r;
}

SweepSpec MiniRaidSpec() {
  SweepSpec spec;
  spec.name = "mini_raid";
  spec.axes = {
      {"striper", {0, 2}, {"static", "adaptive"}},
      {"ratio_pct", {25, 50, 100}, {}},
  };
  spec.seeds = {5, 6, 7};
  return spec;
}

ShapeReport ReportFor(const SweepSpec& spec,
                      const std::vector<CellResult>& results) {
  ShapeReport report;
  for (const auto& g : SummarizeByConfig(spec, results)) {
    // Not a paper claim, just a fixed rendering of the aggregates: any
    // cross-thread-count difference in grouping or stats shows up here.
    report.CheckAtLeast("mean_cfg" + std::to_string(g.config_index),
                        g.stats.mean, 0.0);
    report.CheckAtMost("spread_cfg" + std::to_string(g.config_index),
                       g.stats.p95 - g.stats.median, g.stats.max);
  }
  return report;
}

TEST(SweepDeterminismTest, SameDigestsReportAndJsonAtOneAndFourThreads) {
  const SweepSpec spec = MiniRaidSpec();
  const auto serial = SweepRunner(1).Run(spec, MiniRaidCell);
  const auto parallel = SweepRunner(4).Run(spec, MiniRaidCell);
  ASSERT_EQ(serial.size(), spec.CellCount());
  ASSERT_EQ(parallel.size(), serial.size());

  // The determinism pin: identical per-cell digest vectors...
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].fire_digest, parallel[i].fire_digest)
        << "cell " << i << " diverged between 1 and 4 threads";
    EXPECT_EQ(serial[i].events_fired, parallel[i].events_fired);
    EXPECT_DOUBLE_EQ(serial[i].value, parallel[i].value);
  }
  // ...an identical rendered ShapeReport...
  EXPECT_EQ(ReportFor(spec, serial).Render(),
            ReportFor(spec, parallel).Render());
  // ...and byte-identical exported artifacts.
  EXPECT_EQ(SweepReportJson(spec, serial), SweepReportJson(spec, parallel));
  EXPECT_EQ(SweepReportCsv(spec, serial), SweepReportCsv(spec, parallel));
}

TEST(SweepDeterminismTest, RepeatedRunsAreBitIdentical) {
  const SweepSpec spec = MiniRaidSpec();
  const auto a = SweepRunner(3).Run(spec, MiniRaidCell);
  const auto b = SweepRunner(3).Run(spec, MiniRaidCell);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fire_digest, b[i].fire_digest) << "cell " << i;
  }
}

TEST(SweepDeterminismTest, SeedsProduceDistinctSimulations) {
  const SweepSpec spec = MiniRaidSpec();
  const auto results = SweepRunner(2).Run(spec, MiniRaidCell);
  // Cells 0..2 are the same config at seeds 5/6/7; jitter must make them
  // distinct simulations (otherwise the seed axis is decorative).
  EXPECT_NE(results[0].fire_digest, results[1].fire_digest);
  EXPECT_NE(results[1].fire_digest, results[2].fire_digest);
}

TEST(SweepRunnerTest, CellExceptionPropagates) {
  SweepSpec spec;
  spec.name = "boom";
  spec.axes = {{"x", {0, 1, 2, 3}, {}}};
  EXPECT_THROW(SweepRunner(2).Run(spec,
                                  [](const CellPoint& p) -> CellResult {
                                    if (p.Value("x") == 2.0) {
                                      throw std::runtime_error("boom");
                                    }
                                    return {};
                                  }),
               std::runtime_error);
}

TEST(SweepRunnerTest, ThreadsFromEnvHonorsOverride) {
  // Constructor argument takes precedence over the environment.
  EXPECT_EQ(SweepRunner(5).threads(), 5);
  EXPECT_GE(SweepRunner(0).threads(), 1);
}

}  // namespace
}  // namespace fst

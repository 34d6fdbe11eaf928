// Property-based tests: invariants that must hold across randomized
// parameter sweeps (seeds, rate vectors, fault magnitudes), expressed as
// parameterized gtest suites.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "src/core/detector.h"
#include "src/devices/disk.h"
#include "src/devices/modulators.h"
#include "src/raid/raid10.h"
#include "src/raid/striper.h"
#include "src/simcore/rng.h"
#include "src/simcore/simulator.h"
#include "src/simcore/stats.h"

namespace fst {
namespace {

DiskParams StdDisk() {
  DiskParams p;
  p.flat_bandwidth_mbps = 10.0;
  p.block_bytes = 65536;
  p.capacity_blocks = 1 << 20;
  return p;
}

// ----------------------------------------------------------------
// Volume property sweep: random per-pair slowdowns drawn from the seed.
// ----------------------------------------------------------------

struct VolumeRun {
  double throughput_mbps = 0.0;
  int64_t mapped_blocks = 0;
  int64_t batch_blocks = 0;
  bool every_block_mapped_once = true;
  int64_t makespan_ns = 0;
};

VolumeRun RunVolume(uint64_t seed, StriperKind kind, int n_pairs,
                    int64_t blocks) {
  Simulator sim(seed);
  Rng rng(seed * 77 + 1);
  std::vector<std::unique_ptr<Disk>> disks;
  for (int i = 0; i < 2 * n_pairs; ++i) {
    disks.push_back(
        std::make_unique<Disk>(sim, "disk" + std::to_string(i), StdDisk()));
    // Each disk gets an independent slowdown in [1, 4).
    const double factor = rng.UniformDouble(1.0, 4.0);
    disks.back()->AttachModulator(
        std::make_shared<ConstantFactorModulator>(factor));
  }
  std::vector<Disk*> raw;
  for (auto& d : disks) {
    raw.push_back(d.get());
  }
  VolumeConfig config;
  config.block_bytes = 65536;
  config.striper = kind;
  Raid10Volume volume(sim, config, raw);

  VolumeRun out;
  bool finished = false;
  auto write = [&]() {
    volume.WriteBlocks(blocks, [&](const BatchResult& r) {
      finished = true;
      out.throughput_mbps = r.ThroughputMbps();
      out.batch_blocks = r.blocks;
      out.makespan_ns = r.Makespan().nanos();
    });
  };
  if (kind == StriperKind::kProportional) {
    volume.Calibrate(write);
  } else {
    write();
  }
  sim.Run();
  EXPECT_TRUE(finished);

  out.mapped_blocks = static_cast<int64_t>(volume.address_map().size());
  for (LogicalBlock b = 0; b < blocks; ++b) {
    if (!volume.address_map().Lookup(b).has_value()) {
      out.every_block_mapped_once = false;
    }
  }
  return out;
}

class VolumeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VolumeProperty, AdaptiveNeverLosesToStatic) {
  // Scenario 3 dominates scenario 1 for every fault assignment: pull-based
  // placement can only do better than equal division.
  const uint64_t seed = GetParam();
  const VolumeRun adaptive = RunVolume(seed, StriperKind::kAdaptive, 4, 800);
  const VolumeRun stat = RunVolume(seed, StriperKind::kStatic, 4, 800);
  EXPECT_GE(adaptive.throughput_mbps, stat.throughput_mbps * 0.98);
}

TEST_P(VolumeProperty, ProportionalNeverLosesToStatic) {
  const uint64_t seed = GetParam();
  const VolumeRun prop = RunVolume(seed, StriperKind::kProportional, 4, 800);
  const VolumeRun stat = RunVolume(seed, StriperKind::kStatic, 4, 800);
  EXPECT_GE(prop.throughput_mbps, stat.throughput_mbps * 0.95);
}

TEST_P(VolumeProperty, BlockConservation) {
  const uint64_t seed = GetParam();
  for (StriperKind kind : {StriperKind::kStatic, StriperKind::kProportional,
                           StriperKind::kAdaptive}) {
    const VolumeRun run = RunVolume(seed, kind, 3, 600);
    EXPECT_EQ(run.batch_blocks, 600) << StriperKindName(kind);
    EXPECT_TRUE(run.every_block_mapped_once) << StriperKindName(kind);
    // Map holds calibration blocks too for proportional; logical blocks
    // [0, 600) must all be present.
    EXPECT_GE(run.mapped_blocks, 600) << StriperKindName(kind);
  }
}

TEST_P(VolumeProperty, DeterministicReplay) {
  const uint64_t seed = GetParam();
  const VolumeRun a = RunVolume(seed, StriperKind::kAdaptive, 4, 400);
  const VolumeRun b = RunVolume(seed, StriperKind::kAdaptive, 4, 400);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_DOUBLE_EQ(a.throughput_mbps, b.throughput_mbps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VolumeProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ----------------------------------------------------------------
// Apportionment quota property.
// ----------------------------------------------------------------

class ApportionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApportionProperty, SatisfiesQuotaAndSum) {
  Rng rng(GetParam());
  const int n = static_cast<int>(rng.UniformInt(1, 12));
  const int64_t blocks = rng.UniformInt(0, 5000);
  std::vector<double> rates;
  for (int i = 0; i < n; ++i) {
    rates.push_back(rng.Bernoulli(0.15) ? 0.0 : rng.UniformDouble(0.5, 20.0));
  }
  const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
  const auto shares = ProportionalStriper::Apportion(blocks, rates);
  ASSERT_EQ(shares.size(), rates.size());
  const int64_t sum = std::accumulate(shares.begin(), shares.end(), int64_t{0});
  if (total <= 0.0) {
    EXPECT_EQ(sum, 0);
    return;
  }
  EXPECT_EQ(sum, blocks);
  for (size_t i = 0; i < rates.size(); ++i) {
    if (rates[i] == 0.0) {
      EXPECT_EQ(shares[i], 0);
      continue;
    }
    const double exact = static_cast<double>(blocks) * rates[i] / total;
    // Largest-remainder satisfies quota: floor(exact) <= share <= ceil+1
    // (ties can push one extra unit when many remainders are equal).
    EXPECT_GE(shares[i], static_cast<int64_t>(exact) - 1);
    EXPECT_LE(shares[i], static_cast<int64_t>(exact) + 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApportionProperty,
                         ::testing::Range(uint64_t{100}, uint64_t{130}));

// ----------------------------------------------------------------
// Histogram quantile error bound.
// ----------------------------------------------------------------

class HistogramProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramProperty, QuantileRelativeErrorBounded) {
  Rng rng(GetParam());
  Histogram h;
  std::vector<double> values;
  // Mix of scales: exponential latencies with occasional huge outliers.
  for (int i = 0; i < 5000; ++i) {
    double v = rng.Exponential(1e6);
    if (rng.Bernoulli(0.01)) {
      v *= 100.0;
    }
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.25, 0.5, 0.9, 0.99}) {
    const double exact = values[static_cast<size_t>(q * (values.size() - 1))];
    const double approx = h.ValueAtQuantile(q);
    EXPECT_LE(std::abs(approx - exact) / exact, 0.07) << "q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProperty,
                         ::testing::Range(uint64_t{7}, uint64_t{27}));

// ----------------------------------------------------------------
// Detector decision property over fault magnitudes.
// ----------------------------------------------------------------

class DetectorProperty : public ::testing::TestWithParam<int> {};

TEST_P(DetectorProperty, FlagsIffBeyondEnterThreshold) {
  // Sustained deficit d: detector must flag iff d > enter_deficit.
  const double deficit = 1.0 + 0.2 * GetParam();  // 1.0, 1.2, ..., 3.0
  DetectorParams params;
  params.window = Duration::Millis(100);
  params.enter_windows = 3;
  params.enter_deficit = 1.5;
  params.exit_deficit = 1.2;
  StutterDetector det(PerformanceSpec::SimpleRate(1e6), params);
  SimTime now = SimTime::Zero();
  for (int i = 0; i < 200; ++i) {
    const Duration latency = Duration::Seconds(0.1 * deficit);
    now = now + latency;
    det.Observe(now, 1e5, latency);
  }
  const bool should_flag = deficit > params.enter_deficit + 0.05;
  const bool within_band = deficit < params.enter_deficit - 0.05;
  if (should_flag) {
    EXPECT_EQ(det.state(), PerfState::kStuttering) << "deficit=" << deficit;
  } else if (within_band) {
    EXPECT_EQ(det.state(), PerfState::kHealthy) << "deficit=" << deficit;
  }
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, DetectorProperty, ::testing::Range(0, 11));

// ----------------------------------------------------------------
// RNG stream independence across forks.
// ----------------------------------------------------------------

class RngForkProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngForkProperty, ForkedStreamsUncorrelated) {
  Rng parent(GetParam());
  Rng a = parent.Fork();
  Rng b = parent.Fork();
  OnlineStats diff;
  for (int i = 0; i < 2000; ++i) {
    diff.Add(a.UniformDouble() - b.UniformDouble());
  }
  // Mean difference of two independent U(0,1) streams: ~0 +/- small.
  EXPECT_NEAR(diff.mean(), 0.0, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngForkProperty,
                         ::testing::Values(1u, 42u, 1000u, 31337u));

}  // namespace
}  // namespace fst

// ----------------------------------------------------------------
// Supervised-volume policy property: against any static slowdown, the
// proportional-share policy never does worse than ignoring the fault.
// ----------------------------------------------------------------

#include "src/core/registry.h"
#include "src/raid/supervisor.h"

namespace fst {
namespace {

double RunSupervised(uint64_t seed, double slow_factor, bool proportional) {
  Simulator sim(seed);
  PerformanceStateRegistry registry;
  std::vector<std::unique_ptr<Disk>> disks;
  for (int i = 0; i < 8; ++i) {
    disks.push_back(
        std::make_unique<Disk>(sim, "disk" + std::to_string(i), StdDisk()));
  }
  disks[0]->AttachModulator(
      std::make_shared<ConstantFactorModulator>(slow_factor));
  std::vector<Disk*> raw;
  for (auto& d : disks) {
    raw.push_back(d.get());
  }
  VolumeConfig config;
  config.block_bytes = 65536;
  config.striper = StriperKind::kStatic;
  Raid10Volume volume(sim, config, raw, &registry);
  std::unique_ptr<ReactionPolicy> policy;
  if (proportional) {
    policy = std::make_unique<ProportionalSharePolicy>();
  } else {
    policy = std::make_unique<IgnoreStutterPolicy>();
  }
  VolumeSupervisor supervisor(sim, volume, registry, std::move(policy));
  double mbps = 0.0;
  volume.WriteBlocks(4000, [&](const BatchResult& r) {
    mbps = r.ThroughputMbps();
  });
  sim.Run();
  return mbps;
}

class SupervisorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SupervisorProperty, ProportionalNeverLosesToIgnore) {
  Rng rng(GetParam());
  const double slow_factor = rng.UniformDouble(1.6, 6.0);
  const double prop = RunSupervised(GetParam(), slow_factor, true);
  const double ignore = RunSupervised(GetParam(), slow_factor, false);
  EXPECT_GE(prop, ignore * 0.98) << "slow_factor=" << slow_factor;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SupervisorProperty,
                         ::testing::Values(2u, 4u, 6u, 9u, 12u, 15u));

}  // namespace
}  // namespace fst

// ----------------------------------------------------------------
// Graduated-decluster conservation across random slowdowns.
// ----------------------------------------------------------------

#include "src/river/graduated_decluster.h"

namespace fst {
namespace {

class GdProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GdProperty, EveryBlockServedExactlyOnce) {
  Simulator sim(GetParam());
  Rng rng(GetParam() * 31 + 7);
  std::vector<std::unique_ptr<Disk>> disks;
  std::vector<Disk*> raw;
  const int n = static_cast<int>(rng.UniformInt(3, 10));
  for (int i = 0; i < n; ++i) {
    disks.push_back(
        std::make_unique<Disk>(sim, "gd" + std::to_string(i), StdDisk()));
    disks.back()->AttachModulator(std::make_shared<ConstantFactorModulator>(
        rng.UniformDouble(1.0, 4.0)));
    raw.push_back(disks.back().get());
  }
  GdParams gp;
  gp.blocks_per_segment = 256;
  gp.chunk_blocks = 16;
  GraduatedDecluster gd(sim, raw, gp);
  bool done = false;
  GdResult result;
  gd.Run([&](const GdResult& r) {
    done = true;
    result = r;
  });
  sim.Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(result.ok);
  int64_t total = 0;
  for (int64_t b : result.blocks_served_by_disk) {
    total += b;
  }
  EXPECT_EQ(total, static_cast<int64_t>(n) * 256);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GdProperty,
                         ::testing::Range(uint64_t{50}, uint64_t{62}));

}  // namespace
}  // namespace fst

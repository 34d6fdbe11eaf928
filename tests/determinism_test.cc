// Determinism parity tests for the event core.
//
// Each scenario below runs a seeded end-to-end simulation (RAID-10 batch
// writes, hedged reads with timer cancellation, an open-loop workload) and
// folds the (time, sequence) of every fired event into
// Simulator::fire_digest(). The digests are pinned to the values produced
// by the pre-overhaul event queue (lazy-cancellation binary heap +
// std::function callbacks), so any event-core change that reorders even one
// pair of same-timestamp events — or perturbs scheduling order in a way
// that shifts sequence numbers — fails loudly here.
//
// If a digest changes, that is a determinism regression, not a test to
// update casually: the whole experimental methodology rests on seeded runs
// being bit-reproducible across event-core implementations.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/devices/disk.h"
#include "src/devices/hedge.h"
#include "src/devices/modulators.h"
#include "src/raid/raid10.h"
#include "src/simcore/simulator.h"
#include "src/workload/mixes.h"

namespace fst {
namespace {

DiskParams SmallDisk(double mbps) {
  DiskParams p;
  p.flat_bandwidth_mbps = mbps;
  p.block_bytes = 65536;
  p.capacity_blocks = 1 << 20;
  return p;
}

// Seeded RAID-10 batch writes: 4 mirror pairs, adaptive striper, disk 0
// slowed 3x. Exercises the dense schedule/fire traffic of the storage
// stack, including calibration and multi-batch reuse of the simulator.
uint64_t Raid10Digest() {
  Simulator sim(1234);
  std::vector<std::unique_ptr<Disk>> disks;
  std::vector<Disk*> raw;
  for (int i = 0; i < 8; ++i) {
    disks.push_back(std::make_unique<Disk>(sim, "d" + std::to_string(i),
                                           SmallDisk(10.0)));
    raw.push_back(disks.back().get());
  }
  disks[0]->AttachModulator(std::make_shared<ConstantFactorModulator>(3.0));
  VolumeConfig config;
  config.block_bytes = 65536;
  config.striper = StriperKind::kAdaptive;
  Raid10Volume volume(sim, config, raw);
  for (int batch = 0; batch < 3; ++batch) {
    bool done = false;
    volume.WriteBlocks(600, [&](const BatchResult& r) {
      done = r.ok;
    });
    sim.Run();
    EXPECT_TRUE(done);
  }
  return sim.fire_digest();
}

// Seeded hedged reads against a slow primary and a fast secondary.
// Every operation arms a hedge timer and most cancel it (fast completion)
// or fail over — the cancel-heavy path, where a cancelled timer must
// leave the (time, seq) order of every survivor untouched.
uint64_t HedgeDigest() {
  Simulator sim(99);
  Disk primary(sim, "primary", SmallDisk(10.0));
  Disk secondary(sim, "secondary", SmallDisk(10.0));
  primary.AttachModulator(std::make_shared<ConstantFactorModulator>(6.0));
  HedgeParams hp;
  hp.hedge_delay = Duration::Millis(12);
  hp.max_hedges = 1;
  HedgedOp hedge(sim, hp);
  Rng arrivals = sim.rng().Fork();
  int completions = 0;
  SimTime at = SimTime::Zero();
  for (int i = 0; i < 300; ++i) {
    at = at + Duration::Seconds(arrivals.Exponential(1.0 / 40.0));
    const int64_t offset = arrivals.UniformInt(0, (1 << 18));
    sim.ScheduleAt(at, [&sim, &hedge, &primary, &secondary, &completions,
                        offset]() {
      auto attempt = [offset](Disk& d) {
        return [&d, offset](IoCallback done) {
          DiskRequest req;
          req.kind = IoKind::kRead;
          req.offset_blocks = offset;
          req.nblocks = 4;
          req.done = std::move(done);
          d.Submit(std::move(req));
        };
      };
      hedge.Issue({attempt(primary), attempt(secondary)},
                  [&completions](const IoResult& r) {
                    completions += r.ok ? 1 : 0;
                  });
    });
  }
  sim.Run();
  EXPECT_EQ(completions, 300);
  return sim.fire_digest();
}

// Seeded open-loop Poisson reads against a single disk.
uint64_t OpenLoopDigest() {
  Simulator sim(2718);
  Disk disk(sim, "disk", SmallDisk(10.0));
  OpenLoopParams params;
  params.arrivals_per_sec = 120.0;
  params.run_for = Duration::Seconds(5.0);
  OpenLoopReader reader(sim, disk, params);
  int64_t completed = 0;
  reader.Run([&](const OpenLoopResult& r) { completed = r.completed_ok; });
  sim.Run();
  EXPECT_GT(completed, 0);
  return sim.fire_digest();
}

// Golden digests recorded from the pre-overhaul event queue (lazy-cancel
// binary heap, std::function callbacks) on the seed tree. Any event core
// (today: index-tracked 4-ary heap over a slot slab + InlineCallback) must
// reproduce them exactly: fire order is fixed by (time, seq) alone.
constexpr uint64_t kGoldenRaid10 = 0x954949968ebab50dull;
constexpr uint64_t kGoldenHedge = 0x7596cc08ae106f4dull;
constexpr uint64_t kGoldenOpenLoop = 0xdf713cd03571f972ull;

TEST(DeterminismParityTest, Raid10AdaptiveWriteDigestPinned) {
  const uint64_t digest = Raid10Digest();
  EXPECT_EQ(digest, Raid10Digest()) << "same-process repeat diverged";
  EXPECT_EQ(digest, kGoldenRaid10)
      << "fired-event order changed vs pre-overhaul event core; actual 0x"
      << std::hex << digest;
}

TEST(DeterminismParityTest, HedgedReadCancelDigestPinned) {
  const uint64_t digest = HedgeDigest();
  EXPECT_EQ(digest, HedgeDigest()) << "same-process repeat diverged";
  EXPECT_EQ(digest, kGoldenHedge)
      << "fired-event order changed vs pre-overhaul event core; actual 0x"
      << std::hex << digest;
}

TEST(DeterminismParityTest, OpenLoopWorkloadDigestPinned) {
  const uint64_t digest = OpenLoopDigest();
  EXPECT_EQ(digest, OpenLoopDigest()) << "same-process repeat diverged";
  EXPECT_EQ(digest, kGoldenOpenLoop)
      << "fired-event order changed vs pre-overhaul event core; actual 0x"
      << std::hex << digest;
}

}  // namespace
}  // namespace fst

// Steady-state heap allocations per op on the serving path.
//
// The op core promises no per-op heap allocation: an op's state lives in
// OpTable columns, an attempt's continuation in InlineFunction buffers,
// and a hedge timer in its event-queue slot. This binary replaces the
// global operator new with a counting one and measures allocations per op
// over a window after warm-up (every slab, ring and scratch buffer at its
// high-water mark) for each fan-out shape the service issues: plain,
// hedged and NMR reads, and quorum writes.
//
// It is its own binary because the replacement operators are global.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/cluster/cluster.h"
#include "src/cluster/fleet/fleet.h"
#include "src/core/policy.h"
#include "src/devices/modulators.h"
#include "src/simcore/simulator.h"

namespace {

std::atomic<int64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

void* CountedAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a nonzero size that is a multiple of the alignment.
  const std::size_t size = n == 0 ? a : (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fst {
namespace {

enum class Shape { kPlain, kHedged, kNmr, kWrites };

struct Window {
  int64_t ops = 0;
  int64_t allocs = 0;
  int64_t hedges = 0;     // hedge launches inside the window
  int64_t nmr_reads = 0;  // NMR fan-outs inside the window
  double per_op() const {
    return static_cast<double>(allocs) / static_cast<double>(ops);
  }
};

// 4 nodes, R = 2, node 0 4x slow, 150 ops/s, seed 13; counts from 10 s to
// 35 s of sim time.
Window Measure(Shape shape) {
  Simulator sim(13);
  FleetParams fp;
  fp.arrivals_per_sec = 150.0;
  fp.run_for = Duration::Seconds(40.0);
  fp.read_fraction = shape == Shape::kWrites ? 0.5 : 1.0;
  ColumnarFleet fleet(sim, fp);
  ClusterParams cp;
  cp.nodes = 4;
  cp.shard.replication = 2;
  cp.write_quorum = 2;
  cp.hedge_reads = shape == Shape::kHedged;
  cp.hedge = HedgeParams{Duration::Millis(30), 1};
  cp.nmr.enabled = shape == Shape::kNmr;
  cp.nmr.issue = 2;
  cp.nmr.quorum = 2;
  cp.nmr.key_stride = 1;
  KvService svc(sim, cp, std::make_unique<ProportionalSharePolicy>());
  svc.node(0)->AttachModulator(std::make_shared<ConstantFactorModulator>(4.0));
  fleet.Run(svc, [](const FleetResult&) {});

  sim.RunUntil(SimTime::Zero() + Duration::Seconds(10.0));
  Window w;
  w.ops = -svc.slo().arrivals();
  w.hedges = -svc.hedge_stats().hedges_launched;
  w.nmr_reads = -svc.nmr_reads();
  g_allocs.store(0);
  g_counting.store(true);
  sim.RunUntil(SimTime::Zero() + Duration::Seconds(35.0));
  g_counting.store(false);
  w.allocs = g_allocs.load();
  w.ops += svc.slo().arrivals();
  w.hedges += svc.hedge_stats().hedges_launched;
  w.nmr_reads += svc.nmr_reads();
  sim.Run();
  return w;
}

constexpr double kMaxAllocsPerOp = 0.05;

TEST(AllocTest, PlainReadsDoNotAllocatePerOp) {
  const Window w = Measure(Shape::kPlain);
  ASSERT_GT(w.ops, 3000);
  EXPECT_LT(w.per_op(), kMaxAllocsPerOp) << w.allocs << " over " << w.ops;
}

TEST(AllocTest, HedgedReadsDoNotAllocatePerOp) {
  const Window w = Measure(Shape::kHedged);
  ASSERT_GT(w.ops, 3000);
  ASSERT_GT(w.hedges, 100) << "the window must launch hedges";
  EXPECT_LT(w.per_op(), kMaxAllocsPerOp) << w.allocs << " over " << w.ops;
}

TEST(AllocTest, NmrReadsDoNotAllocatePerOp) {
  const Window w = Measure(Shape::kNmr);
  ASSERT_GT(w.ops, 3000);
  ASSERT_GT(w.nmr_reads, w.ops / 2) << "stride 1: every read fans out";
  EXPECT_LT(w.per_op(), kMaxAllocsPerOp) << w.allocs << " over " << w.ops;
}

TEST(AllocTest, QuorumWritesDoNotAllocatePerOp) {
  const Window w = Measure(Shape::kWrites);
  ASSERT_GT(w.ops, 3000);
  EXPECT_LT(w.per_op(), kMaxAllocsPerOp) << w.allocs << " over " << w.ops;
}

}  // namespace
}  // namespace fst

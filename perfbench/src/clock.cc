// The reference clock behind NowNs(); see common.h.
//
// The reference thread spins kChunk loop iterations at a time and, after
// each chunk, advances the reference time by the chunk's nominal length
// (kChunk * kReferenceNsPerIter) and publishes it with the wall time it was
// reached at and the loop's recent speed (reference ns per wall ns).
// NowNs() extends the last published point to the present at that speed, so
// a reader needs no chunk boundary to fall inside a short interval. When a
// chunk took far longer than the loop's recent pace (the thread was
// descheduled, not slowed), the gap advances the reference time at the
// speed measured just before it, so a pause of the reference thread does
// not read as the measured work running faster.
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "perfbench/src/common.h"

namespace perfbench {
namespace {

constexpr int64_t kChunk = 1024;
// A chunk takes ~2.5 us; one that spans more than this was descheduled.
constexpr int64_t kPauseNs = 50000;
// Weight of one chunk in the speed estimate (time constant ~250 us).
constexpr double kSpeedWeight = 0.01;

// The last published point, under a sequence lock: g_seq is odd while
// the reference thread writes.
std::atomic<uint64_t> g_seq{0};
std::atomic<int64_t> g_ref_ns{0};
std::atomic<int64_t> g_wall_ns{0};
std::atomic<double> g_speed{1.0};
std::atomic<bool> g_running{false};
std::atomic<bool> g_published{false};
std::atomic<uint64_t> g_sink{0};  // keeps the loop's chain live

void Publish(double ref_ns, int64_t wall_ns, double speed) {
  const uint64_t seq = g_seq.load(std::memory_order_relaxed);
  g_seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  g_ref_ns.store(static_cast<int64_t>(ref_ns), std::memory_order_relaxed);
  g_wall_ns.store(wall_ns, std::memory_order_relaxed);
  g_speed.store(speed, std::memory_order_relaxed);
  g_seq.store(seq + 2, std::memory_order_release);
}

void Spin(const std::atomic<bool>& stop, std::atomic<int64_t>& iters_out) {
  constexpr double kChunkNs =
      static_cast<double>(kChunk) * kReferenceNsPerIter;
  uint64_t h = 0x9e3779b97f4a7c15ull;
  int64_t iters = 0;
  double ref_ns = 0.0;
  double speed = 1.0;
  bool warm = false;
  int64_t last = WallNs();
  while (!stop.load(std::memory_order_relaxed)) {
    for (int64_t i = 0; i < kChunk; ++i) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
    }
    iters += kChunk;
    const int64_t now = WallNs();
    const int64_t dt = now - last;
    last = now;
    if (dt > kPauseNs) {
      ref_ns += static_cast<double>(dt) * speed;
    } else {
      ref_ns += kChunkNs;
      const double chunk_speed =
          kChunkNs / static_cast<double>(dt > 0 ? dt : 1);
      speed = warm ? speed + kSpeedWeight * (chunk_speed - speed)
                   : chunk_speed;
      warm = true;
    }
    Publish(ref_ns, now, speed);
    iters_out.store(iters, std::memory_order_relaxed);
    if (warm) {
      g_published.store(true, std::memory_order_release);
    }
  }
  g_sink.store(h, std::memory_order_relaxed);
}

}  // namespace

int64_t NowNs() {
  if (!g_running.load(std::memory_order_relaxed)) {
    return WallNs();
  }
  for (;;) {
    const uint64_t seq = g_seq.load(std::memory_order_acquire);
    const int64_t ref_ns = g_ref_ns.load(std::memory_order_relaxed);
    const int64_t wall_ns = g_wall_ns.load(std::memory_order_relaxed);
    const double speed = g_speed.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if ((seq & 1) == 0 && g_seq.load(std::memory_order_relaxed) == seq) {
      return ref_ns +
             static_cast<int64_t>(static_cast<double>(WallNs() - wall_ns) *
                                  speed);
    }
  }
}

ReferenceClock::ReferenceClock() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0 ||
      CPU_COUNT(&mask) < 2) {
    return;
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) {
      cpus.push_back(c);
    }
  }
  cpu_set_t reference;
  CPU_ZERO(&reference);
  CPU_SET(cpus.back(), &reference);
  cpu_set_t workload = mask;
  CPU_CLR(cpus.back(), &workload);
  if (pthread_setaffinity_np(pthread_self(), sizeof(workload), &workload) !=
      0) {
    return;
  }
  thread_ = std::thread([this] { Spin(stop_, iters_); });
  pthread_setaffinity_np(thread_.native_handle(), sizeof(reference),
                         &reference);
  while (!g_published.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  start_iters_ = iters_.load();
  start_wall_ns_ = WallNs();
  g_running.store(true);
}

ReferenceClock::~ReferenceClock() {
  if (!running()) {
    return;
  }
  g_running.store(false);
  stop_.store(true);
  thread_.join();
}

double ReferenceClock::ItersPerWallSecond() const {
  if (!running()) {
    return 0.0;
  }
  const double wall_s = NsToS(WallNs() - start_wall_ns_);
  const auto iters = static_cast<double>(iters_.load() - start_iters_);
  return wall_s > 0.0 ? iters / wall_s : 0.0;
}

}  // namespace perfbench

#include "src/cluster/shard_map.h"

#include <algorithm>

namespace fst {

namespace {

// SplitMix64 finalizer: a strong, platform-stable 64-bit mixer.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t ShardMap::HashKey(uint64_t key) { return Mix64(key); }

ShardMap::ShardMap(int nodes, ShardMapParams params)
    : nodes_(nodes), params_(params),
      ejected_(static_cast<size_t>(nodes), false), live_nodes_(nodes) {
  ring_.reserve(static_cast<size_t>(nodes) *
                static_cast<size_t>(params_.vnodes_per_node));
  for (int n = 0; n < nodes; ++n) {
    for (int v = 0; v < params_.vnodes_per_node; ++v) {
      // Mix node and vnode through independent streams so points from one
      // node do not cluster.
      const uint64_t where =
          Mix64(Mix64(static_cast<uint64_t>(n) + 1) ^
                Mix64((static_cast<uint64_t>(v) + 1) << 20));
      ring_.push_back({where, n});
    }
  }
  std::sort(ring_.begin(), ring_.end());
  // Guide table over the hash space: ring points are Mix64 outputs, so
  // ~uniform; with 2x oversampled buckets the confined lower_bound in
  // SegmentOf inspects one point in expectation.
  if (!ring_.empty()) {
    int bits = 1;
    while ((size_t{1} << bits) < 2 * ring_.size()) {
      ++bits;
    }
    const size_t buckets = size_t{1} << bits;
    lookup_shift_ = 64 - bits;
    lookup_.resize(buckets + 1);
    size_t cursor = 0;
    for (size_t k = 0; k < buckets; ++k) {
      const uint64_t threshold = static_cast<uint64_t>(k) << lookup_shift_;
      while (cursor < ring_.size() && ring_[cursor].where < threshold) {
        ++cursor;
      }
      lookup_[k] = static_cast<uint32_t>(cursor);
    }
    lookup_[buckets] = static_cast<uint32_t>(ring_.size());
  }
}

size_t ShardMap::SegmentOf(uint64_t key) const {
  if (ring_.empty()) {
    return 0;
  }
  const uint64_t h = HashKey(key);
  const size_t k = static_cast<size_t>(h >> lookup_shift_);
  // Successor of h on the ring, confined to the guide bucket's bracket:
  // identical predicate (and result) as a full lower_bound.
  const auto first = ring_.begin() + lookup_[k];
  const auto last = ring_.begin() + lookup_[k + 1];
  const size_t start =
      static_cast<size_t>(std::lower_bound(first, last, Point{h, -1}) -
                          ring_.begin());
  return start == ring_.size() ? 0 : start;  // wrap, canonical in [0, size)
}

void ShardMap::ReplicasForSegment(size_t seg, std::vector<int>& out) const {
  out.clear();
  if (ring_.empty() || live_nodes_ == 0) {
    return;
  }
  const int want = std::min(params_.replication, live_nodes_);
  out.reserve(static_cast<size_t>(want));
  for (size_t step = 0;
       step < ring_.size() && static_cast<int>(out.size()) < want; ++step) {
    const Point& p = ring_[(seg + step) % ring_.size()];
    if (ejected_[static_cast<size_t>(p.node)]) {
      continue;
    }
    if (std::find(out.begin(), out.end(), p.node) == out.end()) {
      out.push_back(p.node);
    }
  }
}

std::vector<int> ShardMap::ReplicasFor(uint64_t key) const {
  std::vector<int> out;
  ReplicasFor(key, out);
  return out;
}

void ShardMap::ReplicasFor(uint64_t key, std::vector<int>& out) const {
  out.clear();
  if (ring_.empty() || live_nodes_ == 0) {
    return;
  }
  ReplicasForSegment(SegmentOf(key), out);
}

void ShardMap::Eject(int node) {
  if (ejected_[static_cast<size_t>(node)]) {
    return;
  }
  ejected_[static_cast<size_t>(node)] = true;
  --live_nodes_;
  ++rebalances_;
  ++epoch_;
}

void ShardMap::Uneject(int node) {
  if (!ejected_[static_cast<size_t>(node)]) {
    return;
  }
  ejected_[static_cast<size_t>(node)] = false;
  ++live_nodes_;
  ++rebalances_;
  ++epoch_;
}

double ShardMap::OwnershipShare(int node, int samples) const {
  if (samples <= 0) {
    return 0.0;
  }
  int hits = 0;
  for (int i = 0; i < samples; ++i) {
    const std::vector<int> replicas = ReplicasFor(static_cast<uint64_t>(i));
    if (!replicas.empty() && replicas.front() == node) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(samples);
}

}  // namespace fst

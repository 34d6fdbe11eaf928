// Deterministic consistent-hash shard map (keys -> replica sets).
//
// The serving layer shards its key space over the cluster with a classic
// consistent-hash ring: every node owns `vnodes_per_node` virtual points on
// a 64-bit ring, a key hashes to a ring position, and its replica set is
// the first `replication` *distinct, non-ejected* node owners found walking
// clockwise. Ejecting a node (the fail-stop reaction, or the eject arm of a
// fail-stutter policy) is an explicit rebalance: the ejected node's ring
// segments fall through to their clockwise successors, so exactly the keys
// it owned move and everything else stays put — the minimal-disruption
// property that makes ejection cheap to model and cheap to reverse.
//
// Everything is deterministic: ring points come from a SplitMix64-style
// mixer of (node, vnode), not from any RNG, so two ShardMaps built with the
// same parameters agree bit-for-bit on every platform.
#ifndef SRC_CLUSTER_SHARD_MAP_H_
#define SRC_CLUSTER_SHARD_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fst {

struct ShardMapParams {
  int vnodes_per_node = 64;
  int replication = 2;
};

class ShardMap {
 public:
  ShardMap(int nodes, ShardMapParams params);

  // Stable 64-bit key hash (SplitMix64 finalizer); exposed so callers and
  // tests can reason about placement.
  static uint64_t HashKey(uint64_t key);

  // The ordered replica set for `key`: up to `replication` distinct live
  // nodes, primary first. Fewer (possibly zero) when too few nodes remain.
  std::vector<int> ReplicasFor(uint64_t key) const;

  // Allocation-free variant for hot paths: clears and refills `out` with
  // exactly the set the returning overload would produce.
  void ReplicasFor(uint64_t key, std::vector<int>& out) const;

  // Pure prefetch of the guide-table line ReplicasFor(key) will touch:
  // callers that know upcoming keys (the columnar issue loop) hide the
  // lookup miss behind the current op. No observable effect.
  void PrefetchSegmentOf(uint64_t key) const {
    if (!lookup_.empty()) {
      __builtin_prefetch(&lookup_[HashKey(key) >> lookup_shift_]);
    }
  }

  // Monotone rebalance epoch: bumped by every effective Eject/Uneject, so
  // a caller that saw epoch e knows no replica set moved while it still
  // reads e (KvService's repair rescans every acked key when it moves).
  uint64_t epoch() const { return epoch_; }

  // Explicit rebalance: removes/restores a node's ring ownership. Both are
  // idempotent and O(1); lookups skip ejected owners. Because lookups
  // derive everything from the immutable ring plus the ejected mask,
  // Eject∘Uneject is the identity on ownership for any interleaving.
  void Eject(int node);
  void Uneject(int node);

  bool IsEjected(int node) const { return ejected_[static_cast<size_t>(node)]; }
  int nodes() const { return nodes_; }
  int live_nodes() const { return live_nodes_; }
  int rebalances() const { return rebalances_; }
  const ShardMapParams& params() const { return params_; }

  // Fraction of `samples` deterministic probe keys whose *primary* replica
  // is `node` — the load-balance diagnostic used by tests and reports.
  double OwnershipShare(int node, int samples = 4096) const;

  // Whether `other` places every key exactly as this map does. The ring is
  // a pure function of (nodes, vnodes_per_node), so two maps built from
  // the same nodes, vnodes and replication own every key identically iff
  // they eject the same nodes.
  bool SameOwnership(const ShardMap& other) const {
    return nodes_ == other.nodes_ &&
           params_.vnodes_per_node == other.params_.vnodes_per_node &&
           params_.replication == other.params_.replication &&
           ejected_ == other.ejected_;
  }

 private:
  struct Point {
    uint64_t where;
    int node;
    bool operator<(const Point& o) const {
      return where != o.where ? where < o.where : node < o.node;
    }
  };

  // A *segment* is one arc of the ring: every key hashing into the arc
  // ending at ring point i maps to segment i and shares one replica set.
  // SegmentOf finds it in O(1) via a guide table over the (uniform) ring
  // point distribution (0 on an empty ring); ReplicasForSegment walks it.
  size_t SegmentOf(uint64_t key) const;
  void ReplicasForSegment(size_t seg, std::vector<int>& out) const;

  int nodes_;
  ShardMapParams params_;
  std::vector<Point> ring_;     // sorted by `where`
  // lookup_[k] = first ring index whose point falls at or after bucket
  // k's start (buckets partition the 64-bit hash space uniformly): the
  // lower_bound for hash h is confined to [lookup_[h>>shift],
  // lookup_[(h>>shift)+1]] — same predicate, O(1) expected work.
  std::vector<uint32_t> lookup_;
  int lookup_shift_ = 64;
  std::vector<bool> ejected_;
  int live_nodes_;
  int rebalances_ = 0;
  uint64_t epoch_ = 1;
};

}  // namespace fst

#endif  // SRC_CLUSTER_SHARD_MAP_H_

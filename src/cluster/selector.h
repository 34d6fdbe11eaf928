// Policy-aware replica selection for reads.
//
// The selector is where the paper's information argument becomes routing:
// how much performance information a design consumes determines how well it
// dodges a stuttering replica.
//   * kUniform      — the fail-stop illusion: replicas are interchangeable,
//     pick uniformly at random among non-ejected candidates;
//   * kWeighted     — consume the ReactionPolicy's reweights (registry
//     state) but stay blind to instantaneous load;
//   * kQueueWeighted — full fail-stutter routing: policy weight divided by
//     (1 + live outstanding count), so persistent deficits *and* transient
//     queue buildup both shift traffic away.
//
// Rank() returns candidates best-first via weighted sampling without
// replacement from the selector's own forked RNG, so selection is
// deterministic per seed and spreads load instead of pinning ties to the
// lowest node id.
#ifndef SRC_CLUSTER_SELECTOR_H_
#define SRC_CLUSTER_SELECTOR_H_

#include <functional>
#include <vector>

#include "src/simcore/rng.h"

namespace fst {

enum class RouteMode { kUniform, kWeighted, kQueueWeighted };

const char* RouteModeName(RouteMode m);

class ReplicaSelector {
 public:
  // Reports the live outstanding-request count for a node.
  using DepthFn = std::function<int(int node)>;

  // A caller-owned cached rank prefix for one shard (replica set): the
  // weight-filtered (node, weight) candidate list, stamped with the
  // selector epoch it was built at. RankCachedInto() rebuilds it lazily
  // when the stamp is stale — `epoch == 0` never matches, so a
  // default-constructed entry is always rebuilt on first use.
  struct RankCache {
    uint64_t epoch = 0;
    std::vector<std::pair<int, double>> scored;
  };

  ReplicaSelector(RouteMode mode, int nodes, Rng rng);

  // Policy share in [0, 1]; 0 removes the node from every ranking. Bumps
  // the score epoch when the clamped value actually changes.
  void SetWeight(int node, double weight);
  double WeightOf(int node) const {
    return weights_[static_cast<size_t>(node)];
  }

  // Monotone score epoch: bumped on every effective weight change, so a
  // RankCache whose stamp matches is proven current. O(1) invalidation:
  // a bump implicitly invalidates every cache entry everywhere.
  uint64_t epoch() const { return epoch_; }

  // Orders `replicas` best-first under the mode's scoring; zero-weight
  // candidates are dropped. `depth` is only consulted in kQueueWeighted.
  std::vector<int> Rank(const std::vector<int>& replicas,
                        const DepthFn& depth);

  // Allocation-free variant: identical output and — critically — an
  // identical RNG draw sequence to Rank(), written into `out`. Uses member
  // scratch, so calls must not nest (the serving layer never re-enters
  // ranking synchronously).
  void RankInto(const std::vector<int>& replicas, const DepthFn& depth,
                std::vector<int>& out);

  // Epoch-cached variant: identical output and RNG draw sequence to
  // RankInto() on the same replicas, but the weight-filter pass is loaded
  // from `cache` whenever its epoch stamp is current. Per-op scoring
  // (the queue-depth divide) and the tie-break draws stay per-call, so
  // every digest is bit-identical to the uncached path. The caller must
  // pair each cache entry with one fixed replica set.
  void RankCachedInto(RankCache& cache, const std::vector<int>& replicas,
                      const DepthFn& depth, std::vector<int>& out);

  RouteMode mode() const { return mode_; }

  // Retained capacity of the ranking scratch (regression probe for the
  // shrink policy; see kScratchRetainCap).
  size_t scratch_capacity() const { return scored_scratch_.capacity(); }

  // Scratch retention bound: after a rank over more candidates than this,
  // the scratch is released back to empty so a one-off huge replica set
  // (a full-fleet fan-out probe, say) does not pin its high-water mark
  // for the rest of a campaign. Steady serving ranks replication-factor
  // sized sets, far below the bound, and stays allocation-free.
  static constexpr size_t kScratchRetainCap = 64;

 private:
  // The weighted-sampling-without-replacement loop shared by every rank
  // variant; consumes one UniformDouble per emitted position.
  void SampleScored(std::vector<std::pair<int, double>>& scored,
                    std::vector<int>& out);
  void MaybeShrinkScratch();

  RouteMode mode_;
  std::vector<double> weights_;
  // Tie-break stream: one UniformDouble per emitted rank position.
  Rng rng_;
  uint64_t epoch_ = 1;
  std::vector<std::pair<int, double>> scored_scratch_;
};

}  // namespace fst

#endif  // SRC_CLUSTER_SELECTOR_H_

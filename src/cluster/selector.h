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

class ReplicaSelector {
 public:
  // Reports the live outstanding-request count for a node.
  using DepthFn = std::function<int(int node)>;

  ReplicaSelector(RouteMode mode, int nodes, Rng rng);

  // Policy share in [0, 1]; 0 removes the node from every ranking.
  void SetWeight(int node, double weight);
  double WeightOf(int node) const {
    return weights_[static_cast<size_t>(node)];
  }

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
  // Weighted sampling without replacement over `scored`; consumes one
  // UniformDouble per emitted position.
  void SampleScored(std::vector<std::pair<int, double>>& scored,
                    std::vector<int>& out);
  void MaybeShrinkScratch();

  RouteMode mode_;
  std::vector<double> weights_;
  // Tie-break stream: one UniformDouble per emitted rank position.
  Rng rng_;
  std::vector<std::pair<int, double>> scored_scratch_;
};

}  // namespace fst

#endif  // SRC_CLUSTER_SELECTOR_H_

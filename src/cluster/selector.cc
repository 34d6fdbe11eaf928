#include "src/cluster/selector.h"

#include <algorithm>
#include <utility>

namespace fst {

ReplicaSelector::ReplicaSelector(RouteMode mode, int nodes, Rng rng)
    : mode_(mode), weights_(static_cast<size_t>(nodes), 1.0),
      rng_(std::move(rng)) {}

void ReplicaSelector::SetWeight(int node, double weight) {
  weights_[static_cast<size_t>(node)] = std::clamp(weight, 0.0, 1.0);
}

std::vector<int> ReplicaSelector::Rank(const std::vector<int>& replicas,
                                       const DepthFn& depth) {
  std::vector<int> out;
  RankInto(replicas, depth, out);
  return out;
}

void ReplicaSelector::RankInto(const std::vector<int>& replicas,
                               const DepthFn& depth, std::vector<int>& out) {
  std::vector<std::pair<int, double>>& scored = scored_scratch_;
  scored.clear();
  scored.reserve(replicas.size());
  for (int node : replicas) {
    const double w = weights_[static_cast<size_t>(node)];
    if (w <= 0.0) {
      continue;
    }
    double score = 1.0;
    switch (mode_) {
      case RouteMode::kUniform:
        score = 1.0;
        break;
      case RouteMode::kWeighted:
        score = w;
        break;
      case RouteMode::kQueueWeighted:
        score = w / (1.0 + static_cast<double>(depth ? depth(node) : 0));
        break;
    }
    scored.emplace_back(node, score);
  }
  SampleScored(scored, out);
  MaybeShrinkScratch();
}

void ReplicaSelector::SampleScored(std::vector<std::pair<int, double>>& scored,
                                   std::vector<int>& out) {
  // Weighted sampling without replacement: each position is drawn with
  // probability proportional to score among the remaining candidates. The
  // draw pattern (one UniformDouble per emitted position, including the
  // final lone candidate, with order-preserving removal) is pinned:
  // changing it would shift every downstream routing decision per seed.
  out.clear();
  out.reserve(scored.size());
  while (!scored.empty()) {
    double total = 0.0;
    for (const auto& [node, score] : scored) {
      total += score;
    }
    double x = rng_.UniformDouble() * total;
    size_t pick = 0;
    for (size_t i = 0; i < scored.size(); ++i) {
      x -= scored[i].second;
      if (x <= 0.0) {
        pick = i;
        break;
      }
      pick = i;  // numeric slop: fall through to the last candidate
    }
    out.push_back(scored[pick].first);
    scored.erase(scored.begin() + static_cast<long>(pick));
  }
}

void ReplicaSelector::MaybeShrinkScratch() {
  if (scored_scratch_.capacity() > kScratchRetainCap) {
    // Swap with a fresh vector: `= {}` resolves to the initializer_list
    // overload, which clears elements but *keeps* the allocation.
    std::vector<std::pair<int, double>>().swap(scored_scratch_);
  }
}

}  // namespace fst

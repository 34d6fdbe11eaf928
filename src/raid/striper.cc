#include "src/raid/striper.h"

#include <algorithm>
#include <numeric>

namespace fst {

const char* StriperKindName(StriperKind k) {
  switch (k) {
    case StriperKind::kStatic:
      return "static";
    case StriperKind::kProportional:
      return "proportional";
    case StriperKind::kAdaptive:
      return "adaptive";
  }
  return "?";
}

std::unique_ptr<Striper> MakeStriper(StriperKind kind) {
  switch (kind) {
    case StriperKind::kStatic:
      return std::make_unique<StaticStriper>();
    case StriperKind::kProportional:
      return std::make_unique<ProportionalStriper>();
    case StriperKind::kAdaptive:
      return std::make_unique<AdaptiveStriper>();
  }
  return nullptr;
}

BatchPlan StaticStriper::Plan(int64_t nblocks,
                              const std::vector<double>& pair_rates) {
  const int pairs = static_cast<int>(pair_rates.size());
  BatchPlan plan;
  plan.per_pair.resize(pairs);
  // Round-robin: pair p receives logical blocks p, p+N, p+2N, ... — the
  // classic RAID-0 layout over mirror pairs. Dead pairs (rate 0) are
  // skipped, their blocks redistributed round-robin over the living.
  std::vector<int> live;
  for (int p = 0; p < pairs; ++p) {
    if (pair_rates[p] > 0.0) {
      live.push_back(p);
    }
  }
  if (live.empty()) {
    return plan;
  }
  for (LogicalBlock b = 0; b < nblocks; ++b) {
    plan.per_pair[live[static_cast<size_t>(b) % live.size()]].push_back(b);
  }
  return plan;
}

std::vector<int64_t> ProportionalStriper::Apportion(
    int64_t nblocks, const std::vector<double>& rates) {
  const size_t n = rates.size();
  std::vector<int64_t> shares(n, 0);
  const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
  if (total <= 0.0) {
    return shares;
  }
  // Largest-remainder method: floor the exact shares, then hand leftover
  // blocks to the largest fractional remainders.
  std::vector<double> remainders(n, 0.0);
  int64_t assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double exact = static_cast<double>(nblocks) * rates[i] / total;
    shares[i] = static_cast<int64_t>(exact);
    remainders[i] = exact - static_cast<double>(shares[i]);
    assigned += shares[i];
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (remainders[a] != remainders[b]) {
      return remainders[a] > remainders[b];
    }
    return a < b;  // deterministic tie-break
  });
  for (size_t k = 0; assigned < nblocks; ++k) {
    const size_t i = order[k % n];
    if (rates[i] > 0.0) {
      ++shares[i];
      ++assigned;
    }
  }
  return shares;
}

BatchPlan ProportionalStriper::Plan(int64_t nblocks,
                                    const std::vector<double>& pair_rates) {
  BatchPlan plan;
  plan.per_pair.resize(pair_rates.size());
  const std::vector<int64_t> shares = Apportion(nblocks, pair_rates);
  // Smooth weighted round-robin so every pair streams continuously from
  // the start of the batch (contiguous ranges would serialize unevenly if
  // a pair stalls mid-batch). One vector of per-pair state rather than two
  // parallel ones: the pair of vectors trips a GCC 12 -Wfree-nonheap-object
  // false positive under LTO.
  struct PairState {
    int64_t given = 0;
    double credit = 0.0;
  };
  std::vector<PairState> state(shares.size());
  for (LogicalBlock b = 0; b < nblocks; ++b) {
    // Pick the pair with the largest (share - given)/share deficit.
    int best = -1;
    double best_deficit = -1.0;
    for (size_t p = 0; p < shares.size(); ++p) {
      if (state[p].given >= shares[p]) {
        continue;
      }
      state[p].credit += static_cast<double>(shares[p]);
      if (state[p].credit > best_deficit) {
        best_deficit = state[p].credit;
        best = static_cast<int>(p);
      }
    }
    if (best < 0) {
      break;
    }
    state[best].credit -= static_cast<double>(nblocks);
    plan.per_pair[best].push_back(b);
    ++state[best].given;
  }
  return plan;
}

BatchPlan AdaptiveStriper::Plan(int64_t, const std::vector<double>&) {
  BatchPlan plan;
  plan.pull_based = true;
  return plan;
}

std::vector<std::pair<int, int>> PairSimilarDisks(
    const std::vector<double>& rates) {
  std::vector<int> order(rates.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (rates[a] != rates[b]) {
      return rates[a] > rates[b];
    }
    return a < b;
  });
  std::vector<std::pair<int, int>> pairs;
  for (size_t i = 0; i + 1 < order.size(); i += 2) {
    pairs.emplace_back(order[i], order[i + 1]);
  }
  return pairs;
}

}  // namespace fst

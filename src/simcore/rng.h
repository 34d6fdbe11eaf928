// Deterministic pseudo-random number generation for simulations.
//
// The simulator must be bit-reproducible across platforms and standard
// library implementations, so we implement xoshiro256** (public domain,
// Blackman & Vigna) seeded via SplitMix64 rather than relying on <random>
// engines/distributions whose outputs are implementation-defined.
#ifndef SRC_SIMCORE_RNG_H_
#define SRC_SIMCORE_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fst {

class Rng {
 public:
  // Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Next raw 64-bit output.
  uint64_t NextU64();

  // Uniform in [0, 1).
  double UniformDouble();

  // Uniform in [lo, hi).
  double UniformDouble(double lo, double hi);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Exponential with the given mean (> 0).
  double Exponential(double mean);

  // Standard normal via Box-Muller (deterministic, no cached spare).
  double Normal(double mean, double stddev);

  // Bounded Pareto on [lo, +inf) with shape alpha > 0; heavy-tailed service
  // and inter-arrival times used by the fault and workload generators.
  double Pareto(double lo, double alpha);

  // Log-normal with the given parameters of the underlying normal.
  double LogNormal(double mu, double sigma);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  // Derives an independent child generator; used to give each component its
  // own stream so adding a component does not perturb others' randomness.
  Rng Fork();

 private:
  uint64_t s_[4];
};

// Samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s —
// the classic skewed-popularity distribution for hotspot workloads.
//
// Sampling is inverse-CDF accelerated by a guide table (cut points): one
// uniform draw indexes a bucket whose precomputed [lo, hi] bracket confines
// the "first index with cdf >= u" search to an O(1)-expected range. The
// guide table narrows the *same* predicate the old full binary search
// evaluated, so draw sequences are bit-identical to it on every seed —
// unlike Walker's alias method, which is also O(1) but changes the u->rank
// mapping and would silently shift every keyed workload in the tree.
class ZipfGenerator {
 public:
  ZipfGenerator(int64_t n, double s);

  int64_t Sample(Rng& rng) const { return SampleAt(rng.UniformDouble()); }

  // Inverse CDF at a caller-supplied uniform draw u in [0, 1): the exact
  // mapping Sample() applies after drawing u. Batched consumers draw
  // their uniforms in bulk and feed them through here, which keeps the
  // u -> rank mapping (and therefore every keyed workload) bit-identical
  // to the scalar path.
  int64_t SampleAt(double u) const;

  // Software-pipelining hints for batched sampling: Far touches the guide
  // bucket for a draw ~2 pipeline stages ahead; Near reads the (by then
  // cached) bracket and touches the first cdf probe for a draw one stage
  // ahead. Pure prefetches — no observable effect on results.
  void PrefetchFar(double u) const;
  void PrefetchNear(double u) const;

  // P(rank) for tests.
  double ProbabilityOf(int64_t rank) const;

 private:
  std::vector<double> cdf_;
  // guide_[k] = first index with cdf_[i] >= k/buckets (clamped to n-1),
  // for k in [0, buckets]; a draw u searches [guide_[k], guide_[k+1]] only.
  std::vector<uint32_t> guide_;
};

}  // namespace fst

#endif  // SRC_SIMCORE_RNG_H_

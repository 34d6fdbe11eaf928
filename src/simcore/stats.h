// Online statistics used throughout the simulator: Welford moments and
// a log-linear latency histogram (HdrHistogram-style).
#ifndef SRC_SIMCORE_STATS_H_
#define SRC_SIMCORE_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/simcore/time.h"

namespace fst {

// Streaming mean/variance/min/max via Welford's algorithm.
class OnlineStats {
 public:
  void Add(double x);
  void Merge(const OnlineStats& o);
  void Reset();

  uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1); 0 for n < 2
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

  // Half-width of the 95% confidence interval of the mean (normal approx).
  double ci95_halfwidth() const;

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Log-linear histogram of non-negative values (typically latencies in ns).
// Buckets: for each power-of-two range, `sub_buckets` linear sub-buckets.
// Relative quantile error is bounded by 1/sub_buckets.
class Histogram {
 public:
  explicit Histogram(int sub_bucket_bits = 5);

  // Defined inline: every device server records one latency per completion,
  // so the Add path runs millions of times per simulated second and must
  // not pay a cross-TU call.
  void Add(double value) {
    if (count_ == 0) {
      min_ = max_ = value;
    } else {
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    size_t idx = BucketIndex(value);
    if (idx >= buckets_.size()) {
      idx = buckets_.size() - 1;
    }
    ++buckets_[idx];
  }
  void AddDuration(Duration d) { Add(static_cast<double>(d.nanos())); }
  // Records `n` observations of `value` in O(1): one bucket increment and
  // sum_ += value * n. Counts, buckets, min/max, and quantiles match n
  // sequential Add(value) calls exactly; the sum matches whenever
  // value * n is exact (always true for integer-valued data like nanos).
  void RecordN(double value, uint64_t n);
  void Merge(const Histogram& o);
  void Reset();

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  // Nearest-rank quantile accessor with defined degenerate semantics
  // (matching RepStats): n == 0 returns 0.0; n == 1 returns the sample
  // exactly. Otherwise returns the upper bound of the bucket holding the
  // ceil(q*n)-th value, clamped into [min(), max()], with q clamped to
  // [0, 1].
  double ValueAtQuantile(double q) const;
  // Legacy alias for ValueAtQuantile.
  double Quantile(double q) const { return ValueAtQuantile(q); }
  double P50() const { return ValueAtQuantile(0.50); }
  double P95() const { return ValueAtQuantile(0.95); }
  double P99() const { return ValueAtQuantile(0.99); }
  double P999() const { return ValueAtQuantile(0.999); }

  // Fraction of recorded values <= threshold (bucket-resolution accurate).
  double FractionAtOrBelow(double threshold) const;

  std::string Summary() const;

 private:
  size_t BucketIndex(double value) const {
    if (value < 0.0) {
      value = 0.0;
    }
    const uint64_t v = static_cast<uint64_t>(value);
    if (v < sub_buckets_) {
      return static_cast<size_t>(v);  // exact for small values
    }
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - sub_bucket_bits_;
    const size_t sub = static_cast<size_t>(v >> shift) - sub_buckets_;
    const size_t range = static_cast<size_t>(msb - sub_bucket_bits_ + 1);
    return range * sub_buckets_ + sub;
  }
  double BucketUpperBound(size_t index) const;

  int sub_bucket_bits_;
  size_t sub_buckets_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace fst

#endif  // SRC_SIMCORE_STATS_H_

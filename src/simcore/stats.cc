#include "src/simcore/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fst {

void OnlineStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::Merge(const OnlineStats& o) {
  if (o.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double delta = o.mean_ - mean_;
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(o.n_);
  const double nt = na + nb;
  m2_ += o.m2_ + delta * delta * na * nb / nt;
  mean_ += delta * nb / nt;
  n_ += o.n_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

void OnlineStats::Reset() { *this = OnlineStats{}; }

double OnlineStats::variance() const {
  if (n_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::ci95_halfwidth() const {
  if (n_ < 2) {
    return 0.0;
  }
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

Histogram::Histogram(int sub_bucket_bits)
    : sub_bucket_bits_(sub_bucket_bits),
      sub_buckets_(static_cast<size_t>(1) << sub_bucket_bits) {
  // 64 power-of-two ranges cover any double we care about (ns up to ~584y).
  buckets_.assign(64 * sub_buckets_, 0);
}

double Histogram::BucketUpperBound(size_t index) const {
  if (index < sub_buckets_) {
    return static_cast<double>(index);
  }
  const size_t range = index / sub_buckets_;
  const size_t sub = index % sub_buckets_;
  const int shift = static_cast<int>(range) - 1;
  const uint64_t base = (sub_buckets_ + sub) << shift;
  const uint64_t width = static_cast<uint64_t>(1) << shift;
  return static_cast<double>(base + width - 1);
}

void Histogram::RecordN(double value, uint64_t n) {
  if (n == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += n;
  sum_ += value * static_cast<double>(n);
  size_t idx = BucketIndex(value);
  if (idx >= buckets_.size()) {
    idx = buckets_.size() - 1;
  }
  buckets_[idx] += n;
}

void Histogram::Merge(const Histogram& o) {
  if (o.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = o.min_;
    max_ = o.max_;
  } else {
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }
  count_ += o.count_;
  sum_ += o.sum_;
  const size_t n = std::min(buckets_.size(), o.buckets_.size());
  for (size_t i = 0; i < n; ++i) {
    buckets_[i] += o.buckets_[i];
  }
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = max_ = 0.0;
}

double Histogram::ValueAtQuantile(double q) const {
  if (count_ == 0) {
    return 0.0;  // degenerate: no data, all-zero (RepStats semantics)
  }
  if (count_ == 1) {
    return max_;  // degenerate: the single sample, exactly
  }
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) {
      return std::clamp(BucketUpperBound(i), min_, max_);
    }
  }
  return max_;
}

double Histogram::FractionAtOrBelow(double threshold) const {
  if (count_ == 0) {
    return 1.0;
  }
  const size_t limit = std::min(BucketIndex(threshold), buckets_.size() - 1);
  uint64_t seen = 0;
  for (size_t i = 0; i <= limit; ++i) {
    seen += buckets_[i];
  }
  return static_cast<double>(seen) / static_cast<double>(count_);
}

std::string Histogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
                static_cast<unsigned long long>(count_), mean(), P50(), P95(),
                P99(), max());
  return buf;
}

}  // namespace fst

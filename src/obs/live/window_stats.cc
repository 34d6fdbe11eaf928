#include "src/obs/live/window_stats.h"

#include <algorithm>
#include <cmath>

namespace fst {

QuantileSketch::QuantileSketch(int sub_bucket_bits)
    : sub_bucket_bits_(sub_bucket_bits),
      sub_buckets_(static_cast<uint64_t>(1) << sub_bucket_bits) {}

uint32_t QuantileSketch::BucketIndex(double value) const {
  if (value < 0.0) {
    value = 0.0;
  }
  const uint64_t v = static_cast<uint64_t>(value);
  if (v < sub_buckets_) {
    return static_cast<uint32_t>(v);  // exact for small values
  }
  const int msb = 63 - __builtin_clzll(v);
  const int shift = msb - sub_bucket_bits_;
  const uint64_t sub = (v >> shift) - sub_buckets_;
  const uint64_t range = static_cast<uint64_t>(msb - sub_bucket_bits_ + 1);
  return static_cast<uint32_t>(range * sub_buckets_ + sub);
}

double QuantileSketch::BucketUpperBound(uint32_t index) const {
  if (index < sub_buckets_) {
    return static_cast<double>(index);
  }
  const uint64_t range = index / sub_buckets_;
  const uint64_t sub = index % sub_buckets_;
  const int shift = static_cast<int>(range) - 1;
  const uint64_t base = (sub_buckets_ + sub) << shift;
  const uint64_t width = static_cast<uint64_t>(1) << shift;
  return static_cast<double>(base + width - 1);
}

void QuantileSketch::Add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[BucketIndex(value)];
}

void QuantileSketch::Merge(const QuantileSketch& o) {
  if (o.count_ == 0 || o.sub_bucket_bits_ != sub_bucket_bits_) {
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
  for (const auto& [index, n] : o.buckets_) {
    buckets_[index] += n;
  }
}

void QuantileSketch::Reset() {
  buckets_.clear();
  count_ = 0;
  sum_ = 0.0;
  min_ = max_ = 0.0;
}

double QuantileSketch::ValueAtQuantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  if (count_ == 1) {
    return max_;
  }
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (const auto& [index, n] : buckets_) {
    seen += n;
    if (seen >= target) {
      return std::clamp(BucketUpperBound(index), min_, max_);
    }
  }
  return max_;
}

// -- WindowedQuantiles --

WindowedQuantiles::WindowedQuantiles(Duration window, int windows_kept,
                                     int sub_bucket_bits)
    : window_(window),
      keep_(static_cast<size_t>(std::max(1, windows_kept))),
      bits_(sub_bucket_bits),
      open_(sub_bucket_bits),
      empty_(sub_bucket_bits) {}

void WindowedQuantiles::CloseThrough(int64_t target_index) {
  if (!started_) {
    started_ = true;
    open_index_ = target_index;
    return;
  }
  while (open_index_ < target_index) {
    if (target_index - open_index_ > static_cast<int64_t>(keep_)) {
      closed_.clear();
      open_.Reset();
      open_index_ = target_index;
      break;
    }
    closed_.push_back(open_);
    if (closed_.size() > keep_) {
      closed_.pop_front();
    }
    open_ = QuantileSketch(bits_);
    ++open_index_;
  }
}

void WindowedQuantiles::Record(SimTime now, double value) {
  CloseThrough(IndexFor(now));
  open_.Add(value);
}

void WindowedQuantiles::AdvanceTo(SimTime now) { CloseThrough(IndexFor(now)); }

const QuantileSketch& WindowedQuantiles::LastClosed() const {
  return closed_.empty() ? empty_ : closed_.back();
}

QuantileSketch WindowedQuantiles::Rolling() const {
  QuantileSketch merged(bits_);
  for (const QuantileSketch& s : closed_) {
    merged.Merge(s);
  }
  merged.Merge(open_);
  return merged;
}

}  // namespace fst

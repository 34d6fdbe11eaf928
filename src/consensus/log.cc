#include "src/consensus/log.h"

#include <cmath>
#include <cstring>
#include <utility>

namespace fst {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

ControlState::ControlState(int data_nodes, ShardMapParams shard)
    : data_nodes_(data_nodes), shard_params_(shard),
      map_(data_nodes, shard),
      weights_(static_cast<size_t>(data_nodes), 1.0) {}

void ControlState::Apply(uint64_t index, const ConfigChange& c) {
  applied_index_ = index;
  if (c.kind == ConfigChangeKind::kNoop || c.node < 0 ||
      c.node >= data_nodes_) {
    return;
  }
  const size_t n = static_cast<size_t>(c.node);
  switch (c.kind) {
    case ConfigChangeKind::kNoop:
      break;
    case ConfigChangeKind::kEject:
      if (weights_[n] != 0.0 || !map_.IsEjected(c.node)) {
        weights_[n] = 0.0;
        map_.Eject(c.node);
        ++score_epoch_;
      }
      break;
    case ConfigChangeKind::kUneject:
      if (map_.IsEjected(c.node)) {
        map_.Uneject(c.node);
        ++score_epoch_;
      }
      break;
    case ConfigChangeKind::kSetWeight:
      if (weights_[n] != c.weight) {
        weights_[n] = c.weight;
        ++score_epoch_;
      }
      break;
  }
}

ControlSnapshot ControlState::TakeSnapshot() const {
  ControlSnapshot snap;
  snap.applied_index = applied_index_;
  snap.score_epoch = score_epoch_;
  snap.weights = weights_;
  snap.ejected.resize(static_cast<size_t>(data_nodes_), 0);
  for (int i = 0; i < data_nodes_; ++i) {
    snap.ejected[static_cast<size_t>(i)] = map_.IsEjected(i) ? 1 : 0;
  }
  return snap;
}

void ControlState::Restore(const ControlSnapshot& snap) {
  map_ = ShardMap(data_nodes_, shard_params_);
  for (int i = 0; i < data_nodes_; ++i) {
    if (i < static_cast<int>(snap.ejected.size()) &&
        snap.ejected[static_cast<size_t>(i)] != 0) {
      map_.Eject(i);
    }
  }
  weights_ = snap.weights;
  weights_.resize(static_cast<size_t>(data_nodes_), 1.0);
  applied_index_ = snap.applied_index;
  score_epoch_ = snap.score_epoch;
}

uint64_t ControlState::Digest() const {
  uint64_t h = kFnvOffset;
  for (int i = 0; i < data_nodes_; ++i) {
    h = FnvMix(h, map_.IsEjected(i) ? 1 : 0);
  }
  for (double w : weights_) {
    h = FnvMix(h, DoubleBits(w));
  }
  h = FnvMix(h, score_epoch_);
  h = FnvMix(h, applied_index_);
  return h;
}

}  // namespace fst

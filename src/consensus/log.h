// The replicated control log's value types and state machine.
//
// The control plane replicates exactly one thing: the stream of shard-map
// mutations the fail-stutter runtime used to apply directly — ejects,
// unejects, and selector weight changes. Each mutation is a ConfigChange
// (src/cluster/control.h, the type KvService submits and applies);
// committed changes are applied in log order by every replica's
// ControlState, a deterministic state machine wrapping a ShardMap plus the
// per-node weight vector. Because ShardMap::Eject/Uneject are idempotent
// and weight writes are absolute (never deltas), re-applying an
// already-applied suffix after a snapshot restore converges to the same
// state — the property the crash-recovery path leans on and the replay
// tests pin across seeds.
//
// A monotone score epoch (the PR 8 invalidation idea, replicated): every
// *effective* change bumps `score_epoch()`, so two replicas that applied
// the same committed prefix agree not just on ownership bytes
// (`Digest()`) but on how many times downstream caches would have been
// invalidated. Snapshots carry the epoch so a restored replica continues
// the same counter instead of restarting it.
#ifndef SRC_CONSENSUS_LOG_H_
#define SRC_CONSENSUS_LOG_H_

#include <cstdint>
#include <vector>

#include "src/cluster/control.h"
#include "src/cluster/shard_map.h"

namespace fst {

struct LogEntry {
  uint64_t term = 0;
  ConfigChange change;
};

// A compact, restorable image of ControlState at one applied index.
struct ControlSnapshot {
  uint64_t applied_index = 0;
  uint64_t score_epoch = 0;
  std::vector<uint8_t> ejected;  // per data node
  std::vector<double> weights;
};

class ControlState {
 public:
  ControlState(int data_nodes, ShardMapParams shard);

  // Applies the change at `index` (must be applied_index() + 1; applies
  // are strictly sequential). Bumps the score epoch only when the change
  // is effective — a duplicate Eject or an identical weight write leaves
  // both the digest and the epoch untouched.
  void Apply(uint64_t index, const ConfigChange& change);

  ControlSnapshot TakeSnapshot() const;
  void Restore(const ControlSnapshot& snap);

  uint64_t applied_index() const { return applied_index_; }
  uint64_t score_epoch() const { return score_epoch_; }
  const ShardMap& map() const { return map_; }
  double weight(int node) const {
    return weights_[static_cast<size_t>(node)];
  }

  // FNV-1a over the ejected mask (every replica's map is built from the
  // same nodes and params, so the mask fixes its ownership), the weight
  // bits, the score epoch and the applied index: the byte-identity witness
  // replicas are compared with. Two ControlStates that applied the same
  // committed prefix always agree.
  uint64_t Digest() const;

 private:
  int data_nodes_;
  ShardMapParams shard_params_;
  ShardMap map_;
  std::vector<double> weights_;
  uint64_t applied_index_ = 0;
  uint64_t score_epoch_ = 0;
};

}  // namespace fst

#endif  // SRC_CONSENSUS_LOG_H_

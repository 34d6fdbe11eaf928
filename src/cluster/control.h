// One control-plane mutation of the serving state: the unit the
// consensus-backed control plane replicates.
//
// Every structural reaction KvService takes — eject, uneject, weight step —
// is one ConfigChange funneled through a single seam
// (KvService::SubmitControl), so an external control plane can intercept
// the stream, commit it to a replicated log (src/consensus/log.h), and
// apply it back in commit order (KvService::ApplyControl). Application is
// idempotent: kUneject re-checks ring membership and kEject/kSetWeight
// write absolute values, so a committed duplicate converges instead of
// corrupting.
#ifndef SRC_CLUSTER_CONTROL_H_
#define SRC_CLUSTER_CONTROL_H_

#include <cstdint>

namespace fst {

enum class ConfigChangeKind : uint8_t {
  kNoop = 0,     // leader barrier entry (appended on election)
  kEject = 1,    // weight -> 0 and ring ownership handed off
  kUneject = 2,  // ring ownership restored (weight ramps separately)
  kSetWeight = 3,
};

struct ConfigChange {
  ConfigChangeKind kind = ConfigChangeKind::kNoop;
  int32_t node = 0;       // data-plane node the change targets
  double weight = 0.0;    // kSetWeight only
  // Dedupe / latency-join id, assigned by ConsensusGroup::Propose; 0 for
  // leader no-ops and for changes applied without a control plane. Appliers
  // ignore it (duplicate submissions must be idempotent at the ShardMap
  // level, not filtered here).
  uint64_t proposal = 0;
};

}  // namespace fst

#endif  // SRC_CLUSTER_CONTROL_H_

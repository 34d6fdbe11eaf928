// Coalesced completion delivery for the columnar serving front end.
//
// Instead of one std::function invocation per finished op, every op
// appends a {tag, outcome} CompletionRecord to this ring as it completes
// (after the service has recorded its SLO outcome) and the fleet drains
// the ring once per batch tick into its own tallies. Append order is
// completion order.
#ifndef SRC_CLUSTER_FLEET_COMPLETION_H_
#define SRC_CLUSTER_FLEET_COMPLETION_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/cluster/slo.h"

namespace fst {

class CompletionRing {
 public:
  void Append(const CompletionRecord& r) { pending_.push_back(r); }

  // Moves every pending record into `out` (cleared first) and leaves the
  // ring holding out's old buffer: two vectors ping-pong and neither
  // reallocates once they reach the high-water mark.
  void SwapDrain(std::vector<CompletionRecord>& out) {
    out.clear();
    std::swap(out, pending_);
  }

  size_t size() const { return pending_.size(); }
  bool empty() const { return pending_.empty(); }

 private:
  std::vector<CompletionRecord> pending_;
};

}  // namespace fst

#endif  // SRC_CLUSTER_FLEET_COMPLETION_H_

// The fleet's former name. ColumnarFleet (src/cluster/fleet/fleet.h) is
// the only open-loop front end, and its (Simulator&, const FleetParams&)
// constructor takes the arguments this name used to. The alias exists
// only because the benchmark's fixed sources (perfbench/) still spell the
// type this way; nothing else may use it (CI greps for it).
#ifndef SRC_CLUSTER_CLIENT_H_
#define SRC_CLUSTER_CLIENT_H_

#include "src/cluster/fleet/fleet.h"

namespace fst {

using ClientFleet = ColumnarFleet;

}  // namespace fst

#endif  // SRC_CLUSTER_CLIENT_H_

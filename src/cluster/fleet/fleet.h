// The columnar open-loop serving front end: the one fleet every campaign,
// example, bench and test drives.
//
// Arrivals are generated a window at a time into SoA columns
// (ArrivalGenerator), one BatchSequencer event walks the window issuing
// tagged ops against the KvService's slab op table, and terminal outcomes
// come back coalesced: the service records each op's SLO outcome the
// instant it completes and appends its {tag, outcome} to the completion
// ring, and the fleet drains the ring once per window refill into its own
// tallies. When arrivals end, the fleet hands the service a one-shot idle
// callback (KvService::WhenIdle): the completion that leaves no op in
// flight drains the ring a last time and resolves the run in its own
// event, so nothing polls for the tail.
//
// Determinism contract (pinned by tests/fleet_test.cc):
//   * In kPoisson mode the arrival times, keys, and op kinds are
//     bit-identical to a per-event fleet that draws each arrival at its
//     fire time (see arrivals.h), and the sequencer fires one event per
//     arrival as that fleet does, so FleetResult counts, the final
//     SloSnapshot/ReportJson and the simulator's fire_digest all match
//     that fleet's.
//   * Coalescing defers only the fleet's tallies, never SLO accounting, so
//     anything that reads the SloTracker mid-run (telemetry ticks, goodput
//     probes) sees every op that has completed.
//   * With num_clients > 0 every arrival is attributed to a client drawn
//     from an independent stream; per-client tallies feed ClientDigest(),
//     a scale-visible determinism witness for million-client cells.
//
// The fleet forks its streams off the simulator's root RNG when it is
// constructed, so its place in the construction order fixes every stream
// forked after it; Run may come later, and the arrival process starts
// then.
#ifndef SRC_CLUSTER_FLEET_FLEET_H_
#define SRC_CLUSTER_FLEET_FLEET_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/fleet/arrivals.h"
#include "src/simcore/batch_sequencer.h"
#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {

struct ColumnarFleetParams {
  FleetParams base;
  // Arrivals generated per refill; the coalescing grain.
  size_t window = 4096;
  // 0 = anonymous (two root forks, arrival then key); > 0 models a
  // population of independent clients whose ids tag every op.
  uint32_t num_clients = 0;
  ArrivalMode mode = ArrivalMode::kPoisson;
  std::vector<MmppPhase> phases;  // kMmpp only; cycled round-robin
};

// Per-client issue/outcome tallies (num_clients > 0 only).
struct ClientTally {
  int64_t issued = 0;
  int64_t ok = 0;
  int64_t failed = 0;
};

class ColumnarFleet {
 public:
  // Throws std::invalid_argument for a zero window or any arrival input
  // ArrivalGenerator rejects; otherwise forks the arrival stream, then the
  // key stream (then the client-id stream when num_clients > 0).
  ColumnarFleet(Simulator& sim, ColumnarFleetParams params);
  // An anonymous kPoisson fleet with the default window.
  ColumnarFleet(Simulator& sim, const FleetParams& base);

  // Issues tagged arrivals against `service` from now until base.run_for
  // elapses, then resolves `done` in the event of the completion that
  // leaves the service with no op in flight (at once if none is), with
  // every record drained from the completion ring. The fleet must be the
  // service's only client.
  void Run(KvService& service, std::function<void(const FleetResult&)> done);

  const FleetResult& result() const { return result_; }

  // FNV-1a digest over every client's (issued, ok, failed): two runs of
  // the same seeded cell must match bit-for-bit even at a million clients.
  uint64_t ClientDigest() const;

 private:
  size_t Refill();
  void IssueAt(size_t i);
  void DrainTick();
  void Finish();

  Simulator& sim_;
  ColumnarFleetParams params_;
  ArrivalGenerator gen_;
  BatchSequencer seq_;
  ArrivalBatch batch_;

  KvService* service_ = nullptr;
  SimTime horizon_;
  FleetResult result_;
  std::vector<ClientTally> tallies_;
  std::function<void(const FleetResult&)> done_;
};

}  // namespace fst

#endif  // SRC_CLUSTER_FLEET_FLEET_H_

// Batched arrival generation for the columnar fleet.
//
// Fills a structure-of-arrays window (times, keys, op kinds, client ids) in
// one call instead of drawing per event. The draw discipline preserves the
// legacy ClientFleet's per-stream sequences exactly: all inter-arrival gaps
// for the window come off the arrival stream first (the same gaps, in the
// same order, the per-event path would have drawn one at a time), then each
// arrival's key and read/write coin come off the key stream in per-arrival
// order. Because the two streams are independent forks, reordering draws
// *across* streams — which batching does — cannot change either stream's
// sequence, so batched arrival times, keys, and op kinds are bit-identical
// to the per-event path on every seed. The horizon-crossing gap is drawn
// and consumed, matching the legacy scheduler.
//
// kMmpp adds a Markov-modulated Poisson process (batched-only, no legacy
// counterpart): phases cycle round-robin, each holding an arrival rate and
// a mean sojourn; within a phase the next arrival and the phase's end race
// as competing exponentials, and losing the race restarts the arrival draw
// in the next phase (exact for exponentials — memorylessness). All MMPP
// draws come off the arrival stream.
#ifndef SRC_CLUSTER_FLEET_ARRIVALS_H_
#define SRC_CLUSTER_FLEET_ARRIVALS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/cluster/client.h"
#include "src/simcore/rng.h"
#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {

// One window of generated arrivals, SoA layout. Columns are index-aligned.
struct ArrivalBatch {
  std::vector<SimTime> at;
  std::vector<uint64_t> key;
  std::vector<uint8_t> is_read;
  std::vector<uint32_t> client;  // issuing client id (0 when anonymous)

  size_t size() const { return at.size(); }
  void Clear() {
    at.clear();
    key.clear();
    is_read.clear();
    client.clear();
  }
};

enum class ArrivalMode { kPoisson, kMmpp };

// One MMPP phase: offered rate while resident, exponential sojourn.
struct MmppPhase {
  double rate = 300.0;
  double mean_sojourn_s = 1.0;
};

class ArrivalGenerator {
 public:
  // Forks the arrival stream first, then the key stream — the exact fork
  // order (and count, when num_clients == 0) of ClientFleet, so a generator
  // constructed in its place sees identical streams. A third client-id
  // stream is forked only when num_clients > 0; it is independent, so the
  // arrival/key sequences still match the legacy fleet.
  //
  // Throws std::invalid_argument, before forking anything, when `base`
  // fails ValidateFleetParams, when `base.surges` is non-empty (this
  // generator draws at the base rate only and would drop them), or, in
  // kMmpp mode, when `phases` is empty or a phase's rate is not positive
  // and finite or its mean sojourn is not positive. An infinite rate
  // draws zero gaps, so the process would never reach the horizon.
  ArrivalGenerator(Simulator& sim, const FleetParams& base, ArrivalMode mode,
                   std::vector<MmppPhase> phases, uint32_t num_clients);

  // Appends up to `max` arrivals with time <= horizon to `batch` (cleared
  // first). Returns false once the process crossed the horizon: the batch
  // may still hold a final partial window, but later calls yield nothing.
  bool FillWindow(ArrivalBatch& batch, size_t max, SimTime horizon);

  SimTime cursor() const { return cursor_; }

 private:
  FleetParams base_;
  ArrivalMode mode_;
  std::vector<MmppPhase> phases_;
  uint32_t num_clients_;
  // One private forked stream per draw site, so each stage's draw order
  // is independent of the others'.
  Rng arrival_rng_;
  Rng key_rng_;
  Rng client_rng_;
  ZipfGenerator zipf_;
  SimTime cursor_;
  std::vector<double> u_scratch_;  // FillWindow's key-stream uniforms
  size_t phase_ = 0;
  bool exhausted_ = false;
};

}  // namespace fst

#endif  // SRC_CLUSTER_FLEET_ARRIVALS_H_

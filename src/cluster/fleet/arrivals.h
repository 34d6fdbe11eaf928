// Open-loop arrival generation for the columnar fleet.
//
// Open-loop matters for the paper's argument: a closed-loop client slows
// down with the service and hides the damage a stutterer does, while an
// open-loop fleet (arrivals keep coming at the offered rate regardless of
// completions) makes a slow replica either shed load or blow its deadline
// — exactly the over-saturation dynamic of the Gribble DDS anecdote.
//
// FillWindow fills a structure-of-arrays window (times, keys, op kinds,
// client ids) in one call instead of drawing per event. Draw order, per
// stream:
//   * arrival stream (forked first): in kPoisson, one Exponential per
//     arrival, mean 1 / (arrivals_per_sec * factor), where factor is that
//     of the last surge window covering the previous arrival (the start
//     instant for the first one), measured from the generator's start;
//     1.0 outside every window, and multiplying by 1.0 is exact, so a
//     surge-free run draws the same gaps as a plain Poisson process. In
//     kMmpp, per attempt, one arrival Exponential and then one sojourn
//     Exponential (see below).
//   * key stream (forked second): per arrival, one uniform for the Zipf
//     inversion point, then one for the read/write coin.
//   * client-id stream (forked third, only when num_clients > 0): one
//     UniformInt per arrival.
// All of a window's gaps come off the arrival stream before any of its
// keys come off the key stream. The streams are independent forks, so
// reordering draws *across* streams cannot change any stream's sequence:
// a per-event fleet that draws one gap, key and coin at each arrival's
// fire time issues bit-identical times, keys and kinds on every seed
// (tests/fleet_test.cc keeps such a fleet as the reference). The
// horizon-crossing gap is drawn and consumed, and any gap that lands past
// the horizon — however long, even one too long for a Duration — is that
// crossing draw.
//
// kMmpp is a Markov-modulated Poisson process: phases cycle round-robin,
// each holding an arrival rate and a mean sojourn; within a phase the next
// arrival and the phase's end race as competing exponentials, and losing
// the race restarts the arrival draw in the next phase (exact for
// exponentials — memorylessness). All MMPP draws come off the arrival
// stream. Surges are a kPoisson feature.
#ifndef SRC_CLUSTER_FLEET_ARRIVALS_H_
#define SRC_CLUSTER_FLEET_ARRIVALS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/simcore/rng.h"
#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {

// A transient arrival-rate multiplier: over [at, at + duration) from the
// generator's start, the offered rate is arrivals_per_sec * factor. This
// is the client half of a retry-storm trigger (chaos SurgeWindows).
struct ArrivalSurge {
  Duration at;
  Duration duration;
  double factor = 1.0;
};

struct FleetParams {
  double arrivals_per_sec = 300.0;
  Duration run_for = Duration::Seconds(30.0);
  // P(read) per op; 1.0 = read-only, 0.0 = write-only.
  double read_fraction = 1.0;
  int64_t key_space = 10000;
  // Zipf skew; <= 0 selects uniform key popularity.
  double zipf_s = 1.1;
  // Arrival surges (kPoisson only); the last window covering an instant
  // sets its factor.
  std::vector<ArrivalSurge> surges;
};

// Throws std::invalid_argument for parameters the arrival process cannot
// run on: a non-positive or non-finite rate (Exponential(1/rate) would be
// fed a divide-by-zero), a negative horizon, a read fraction outside
// [0, 1], an empty key space, a non-finite skew, or a surge with a
// non-positive or non-finite factor or a negative time. run_for == 0 is
// valid: the fleet resolves `done` with zero ops issued.
void ValidateFleetParams(const FleetParams& params);

struct FleetResult {
  int64_t ops_issued = 0;
  int64_t reads_issued = 0;
  int64_t writes_issued = 0;
  int64_t ops_ok = 0;
  int64_t ops_failed = 0;  // shed or errored (details in the SloTracker)
};

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
  // Forks the arrival stream first, then the key stream, then — only when
  // num_clients > 0 — the client-id stream. The generator starts at
  // sim.Now(); StartAt moves it.
  //
  // Throws std::invalid_argument, before forking anything, when `base`
  // fails ValidateFleetParams, or, in kMmpp mode, when `base.surges` is
  // non-empty, `phases` is empty, or a phase's rate is not positive and
  // finite or its mean sojourn is not positive. An infinite rate draws
  // zero gaps, so the process would never reach the horizon.
  ArrivalGenerator(Simulator& sim, const FleetParams& base, ArrivalMode mode,
                   std::vector<MmppPhase> phases, uint32_t num_clients);

  // Moves the start — the first gap's origin and the surge clock — to
  // `at`. Call before the first FillWindow; draws nothing.
  void StartAt(SimTime at);

  // Appends up to `max` arrivals with time <= horizon to `batch` (cleared
  // first). Returns false once the process crossed the horizon: the batch
  // may still hold a final partial window, but later calls yield nothing.
  bool FillWindow(ArrivalBatch& batch, size_t max, SimTime horizon);

  SimTime cursor() const { return cursor_; }

 private:
  // The surge factor at `t`: the last window covering it, else 1.0.
  double FactorAt(SimTime t) const;

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
  SimTime start_;
  SimTime cursor_;
  std::vector<double> u_scratch_;  // FillWindow's key-stream uniforms
  size_t phase_ = 0;
  bool exhausted_ = false;
};

}  // namespace fst

#endif  // SRC_CLUSTER_FLEET_ARRIVALS_H_

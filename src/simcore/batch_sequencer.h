// Batch scheduling helper: drives a window of precomputed due times with a
// single self-rescheduling event.
//
// An open-loop arrival process used to cost one freshly drawn timer per
// event. The sequencer inverts that: a generator refills a whole window of
// non-decreasing due times at once (amortizing its random draws and keeping
// them in a dense column), and exactly one live event walks the window,
// firing each index at its due time and rescheduling itself for the next.
// The per-arrival cost in the event core is one [this]-capturing inline
// callback — no allocation, no per-arrival generator work.
#ifndef SRC_SIMCORE_BATCH_SEQUENCER_H_
#define SRC_SIMCORE_BATCH_SEQUENCER_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {

class BatchSequencer {
 public:
  // Invoked at (*times)[i] for each index i of the current window, in order.
  using FireFn = std::function<void(size_t index)>;
  // Invoked when the window is exhausted (including once at Start): rewrite
  // the times vector with the next window and return its size; 0 ends the
  // run. Returned size must equal times->size().
  using RefillFn = std::function<size_t()>;

  explicit BatchSequencer(Simulator& sim) : sim_(sim) {}

  // `times` stays owned by the caller; refill rewrites it in place. Due
  // times must be non-decreasing across the whole run and never in the
  // simulator's past. Starts with an immediate refill (pass an empty
  // window).
  void Start(const std::vector<SimTime>* times, FireFn fire, RefillFn refill) {
    times_ = times;
    fire_ = std::move(fire);
    refill_ = std::move(refill);
    next_ = 0;
    active_ = true;
    Pump();
  }

  // False once a refill returned 0 (no event pending).
  bool active() const { return active_; }

 private:
  void Pump() {
    while (next_ >= times_->size()) {
      if (refill_() == 0) {
        active_ = false;
        return;
      }
      next_ = 0;
    }
    sim_.ScheduleAt((*times_)[next_], [this] {
      const size_t i = next_++;
      fire_(i);
      Pump();
    });
  }

  Simulator& sim_;
  const std::vector<SimTime>* times_ = nullptr;
  FireFn fire_;
  RefillFn refill_;
  size_t next_ = 0;
  bool active_ = false;
};

}  // namespace fst

#endif  // SRC_SIMCORE_BATCH_SEQUENCER_H_

#include "src/simcore/simulator.h"

#include <stdexcept>

namespace fst {

Simulator::Simulator(uint64_t seed) : rng_(seed) {}

bool Simulator::Cancel(EventId id) { return queue_.Cancel(id); }

bool Simulator::FireNext(SimTime deadline) {
  if (events_fired_ >= max_events_) {
    const std::optional<SimTime> next = queue_.PeekTime();
    if (next.has_value() && *next <= deadline) {
      throw std::runtime_error(
          "Simulator: max_events exceeded (runaway event loop?)");
    }
  }
  const std::optional<EventQueue::Popped> due = queue_.PopDue(deadline);
  if (!due.has_value()) {
    return false;
  }
  now_ = due->when;
  now_sched_ = due->sched;
  ++events_fired_;
  fire_digest_ = (fire_digest_ ^ static_cast<uint64_t>(due->when.nanos())) *
                 1099511628211ull;
  fire_digest_ = (fire_digest_ ^ due->seq) * 1099511628211ull;
  queue_.Fire(*due);
  return true;
}

uint64_t Simulator::Run() {
  stop_requested_ = false;
  uint64_t fired = 0;
  while (!stop_requested_ && FireNext(SimTime::Max())) {
    ++fired;
  }
  return fired;
}

uint64_t Simulator::RunUntil(SimTime deadline) {
  stop_requested_ = false;
  uint64_t fired = 0;
  while (!stop_requested_ && FireNext(deadline)) {
    ++fired;
  }
  if (now_ < deadline && !stop_requested_) {
    now_ = deadline;
    now_sched_ = SimTime::Max();
  }
  return fired;
}

uint64_t Simulator::RunSteps(uint64_t n) {
  stop_requested_ = false;
  uint64_t fired = 0;
  while (fired < n && !stop_requested_ && FireNext(SimTime::Max())) {
    ++fired;
  }
  return fired;
}

}  // namespace fst

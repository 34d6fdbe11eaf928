#include "src/cluster/fleet/arrivals.h"

#include <cmath>
#include <stdexcept>

namespace fst {

namespace {

const FleetParams& Validated(const FleetParams& base, ArrivalMode mode,
                             const std::vector<MmppPhase>& phases) {
  ValidateFleetParams(base);
  if (!base.surges.empty()) {
    throw std::invalid_argument(
        "ArrivalGenerator does not model FleetParams.surges");
  }
  if (mode == ArrivalMode::kMmpp) {
    if (phases.empty()) {
      throw std::invalid_argument("kMmpp requires at least one phase");
    }
    for (const MmppPhase& ph : phases) {
      if (!(ph.rate > 0.0) || !std::isfinite(ph.rate) ||
          !(ph.mean_sojourn_s > 0.0)) {
        throw std::invalid_argument(
            "MmppPhase rate must be positive and finite, mean_sojourn_s "
            "positive");
      }
    }
  }
  return base;
}

}  // namespace

ArrivalGenerator::ArrivalGenerator(Simulator& sim, const FleetParams& base,
                                   ArrivalMode mode,
                                   std::vector<MmppPhase> phases,
                                   uint32_t num_clients)
    : base_(Validated(base, mode, phases)), mode_(mode),
      phases_(std::move(phases)),
      num_clients_(num_clients), arrival_rng_(sim.rng().Fork()),
      key_rng_(sim.rng().Fork()),
      // Forked last and only on demand, so anonymous generators consume
      // exactly the legacy fleet's two forks from the root stream.
      client_rng_(num_clients > 0 ? sim.rng().Fork() : Rng(0)),
      zipf_(base_.key_space, base_.zipf_s > 0.0 ? base_.zipf_s : 0.0),
      cursor_(sim.Now()) {}

bool ArrivalGenerator::FillWindow(ArrivalBatch& batch, size_t max,
                                  SimTime horizon) {
  batch.Clear();
  if (exhausted_) {
    return false;
  }
  // Stage 1: arrival times only — the arrival stream's draws, in the same
  // order the per-event scheduler would make them.
  while (batch.at.size() < max) {
    SimTime t;
    if (mode_ == ArrivalMode::kPoisson) {
      t = cursor_ + Duration::Seconds(arrival_rng_.Exponential(
                        1.0 / base_.arrivals_per_sec));
    } else {
      // Race the next arrival against the phase's remaining sojourn; on a
      // phase switch both clocks restart (memoryless), so re-drawing the
      // arrival in the new phase is exact.
      for (;;) {
        if (cursor_ > horizon) {
          exhausted_ = true;
          return false;
        }
        const MmppPhase& p = phases_[phase_];
        const double gap_arrival = arrival_rng_.Exponential(1.0 / p.rate);
        const double gap_switch = arrival_rng_.Exponential(p.mean_sojourn_s);
        if (gap_arrival <= gap_switch) {
          t = cursor_ + Duration::Seconds(gap_arrival);
          break;
        }
        cursor_ = cursor_ + Duration::Seconds(gap_switch);
        phase_ = (phase_ + 1) % phases_.size();
      }
    }
    if (t > horizon) {
      // The crossing gap is consumed, matching the per-event scheduler.
      exhausted_ = true;
      break;
    }
    cursor_ = t;
    batch.at.push_back(t);
  }
  // Stage 2: per-arrival key + op-kind coin off the key stream. Per
  // arrival the per-event path draws exactly two uniforms — the Zipf
  // inversion point, then the coin — so drawing 2n uniforms off the key
  // stream up front reproduces it verbatim. Splitting draw from table
  // walk lets the Zipf lookups software-pipeline: prefetch the guide row
  // ~16 arrivals ahead and the cdf midpoint ~8 ahead, both from already-
  // known inversion points, hiding the 8 MB cdf's cache misses.
  const size_t n = batch.at.size();
  batch.key.reserve(n);
  batch.is_read.reserve(n);
  u_scratch_.resize(2 * n);
  double* u = u_scratch_.data();
  for (size_t i = 0; i < 2 * n; ++i) {
    u[i] = key_rng_.UniformDouble();
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + 16 < n) {
      zipf_.PrefetchFar(u[2 * (i + 16)]);
    }
    if (i + 8 < n) {
      zipf_.PrefetchNear(u[2 * (i + 8)]);
    }
    batch.key.push_back(static_cast<uint64_t>(zipf_.SampleAt(u[2 * i])));
    batch.is_read.push_back(u[2 * i + 1] < base_.read_fraction ? 1 : 0);
  }
  // Stage 3: issuing client ids from their own stream (order across streams
  // is free, so this stage cannot perturb stages 1-2).
  batch.client.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch.client.push_back(
        num_clients_ > 0
            ? static_cast<uint32_t>(client_rng_.UniformInt(
                  0, static_cast<int64_t>(num_clients_) - 1))
            : 0);
  }
  return !exhausted_;
}

}  // namespace fst

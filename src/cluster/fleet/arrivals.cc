#include "src/cluster/fleet/arrivals.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fst {

void ValidateFleetParams(const FleetParams& params) {
  if (!(params.arrivals_per_sec > 0.0) ||
      !std::isfinite(params.arrivals_per_sec)) {
    throw std::invalid_argument(
        "FleetParams.arrivals_per_sec must be positive and finite");
  }
  if (params.run_for < Duration::Zero()) {
    throw std::invalid_argument("FleetParams.run_for must be >= 0");
  }
  if (!(params.read_fraction >= 0.0 && params.read_fraction <= 1.0)) {
    throw std::invalid_argument(
        "FleetParams.read_fraction must be in [0, 1]");
  }
  if (params.key_space < 1) {
    throw std::invalid_argument("FleetParams.key_space must be >= 1");
  }
  if (!std::isfinite(params.zipf_s)) {
    throw std::invalid_argument("FleetParams.zipf_s must be finite");
  }
  for (const ArrivalSurge& s : params.surges) {
    if (!(s.factor > 0.0) || !std::isfinite(s.factor)) {
      throw std::invalid_argument(
          "ArrivalSurge.factor must be positive and finite");
    }
    if (s.at < Duration::Zero() || s.duration < Duration::Zero()) {
      throw std::invalid_argument("ArrivalSurge times must be >= 0");
    }
  }
}

namespace {

const FleetParams& Validated(const FleetParams& base, ArrivalMode mode,
                             const std::vector<MmppPhase>& phases) {
  ValidateFleetParams(base);
  if (mode == ArrivalMode::kMmpp) {
    if (!base.surges.empty()) {
      throw std::invalid_argument("kMmpp does not model FleetParams.surges");
    }
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

// Whether a gap of `gap_s` seconds from `from` lands past `horizon`,
// decided before Duration::Seconds converts it: a gap of 2^63 ns or more
// (a tiny rate's) crosses any horizon, and every shorter gap gets exactly
// the `from + Duration::Seconds(gap_s) > horizon` test.
bool Crosses(double gap_s, SimTime from, SimTime horizon) {
  const double ns = gap_s * 1e9;
  return !(ns < 0x1p63) ||
         Duration(static_cast<int64_t>(ns)) > horizon - from;
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
      // exactly two forks from the root stream.
      client_rng_(num_clients > 0 ? sim.rng().Fork() : Rng(0)),
      zipf_(base_.key_space, base_.zipf_s > 0.0 ? base_.zipf_s : 0.0),
      start_(sim.Now()), cursor_(sim.Now()) {}

void ArrivalGenerator::StartAt(SimTime at) {
  start_ = at;
  cursor_ = at;
}

double ArrivalGenerator::FactorAt(SimTime t) const {
  double factor = 1.0;
  const Duration since_start = t - start_;
  for (const ArrivalSurge& s : base_.surges) {
    if (since_start >= s.at && since_start < s.at + s.duration) {
      factor = s.factor;
    }
  }
  return factor;
}

bool ArrivalGenerator::FillWindow(ArrivalBatch& batch, size_t max,
                                  SimTime horizon) {
  batch.Clear();
  if (exhausted_) {
    return false;
  }
  // Stage 1: arrival times only — the arrival stream's draws, in the same
  // order a per-event scheduler would make them.
  while (batch.at.size() < max) {
    double gap;
    if (mode_ == ArrivalMode::kPoisson) {
      gap = arrival_rng_.Exponential(
          1.0 / (base_.arrivals_per_sec * FactorAt(cursor_)));
    } else {
      // Race the next arrival against the phase's remaining sojourn; on a
      // phase switch both clocks restart (memoryless), so re-drawing the
      // arrival in the new phase is exact. A phase end past the horizon
      // is the crossing draw.
      for (;;) {
        const MmppPhase& p = phases_[phase_];
        const double gap_arrival = arrival_rng_.Exponential(1.0 / p.rate);
        const double gap_switch = arrival_rng_.Exponential(p.mean_sojourn_s);
        if (gap_arrival <= gap_switch ||
            Crosses(gap_switch, cursor_, horizon)) {
          gap = std::min(gap_arrival, gap_switch);
          break;
        }
        cursor_ = cursor_ + Duration::Seconds(gap_switch);
        phase_ = (phase_ + 1) % phases_.size();
      }
    }
    if (Crosses(gap, cursor_, horizon)) {
      // The crossing gap is consumed, as a per-event scheduler would.
      exhausted_ = true;
      break;
    }
    cursor_ = cursor_ + Duration::Seconds(gap);
    batch.at.push_back(cursor_);
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

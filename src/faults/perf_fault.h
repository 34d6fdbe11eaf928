// Stochastic performance-fault processes.
//
// Each is a ServiceModulator whose factor evolves in virtual time. State
// advances lazily as the simulation queries it (queries are monotone in
// time), so runs remain deterministic for a fixed seed and event order.
//
// The paper's summary (Section 2.3) distinguishes "short-term performance
// fluctuations that occur randomly across all components" (ignorable) from
// "slowdowns that are long-lived and likely to occur on a subset of
// components" (the harmful kind). RandomJitterModulator produces the
// former; the other processes produce the latter.
#ifndef SRC_FAULTS_PERF_FAULT_H_
#define SRC_FAULTS_PERF_FAULT_H_

#include <vector>

#include "src/devices/device.h"
#include "src/simcore/rng.h"
#include "src/simcore/time.h"

namespace fst {

// Two-state Markov-modulated slowdown: alternates between a normal state
// (factor 1) and a degraded state (factor `slow_factor`), with
// exponentially distributed sojourn times. Models intermittent firmware
// stalls, contended buses, and similar long-lived episodic faults.
class IntermittentSlowdownModulator : public ServiceModulator {
 public:
  IntermittentSlowdownModulator(Rng rng, double slow_factor,
                                Duration mean_normal, Duration mean_degraded);

  double TimeFactor(SimTime now) override;

  int episodes() const { return episodes_; }

 private:
  void AdvanceTo(SimTime now);

  Rng rng_;
  double slow_factor_;
  Duration mean_normal_;
  Duration mean_degraded_;
  bool degraded_ = false;
  SimTime state_end_ = SimTime::Zero();
  bool started_ = false;
  int episodes_ = 0;
};

// Monotone degradation: factor(t) = 1 + slope_per_hour * hours(t - onset),
// capped at `max_factor`. Models a component wearing out; the paper's
// reliability benefit ("erratic performance may be an early indicator of
// impending failure") is evaluated against this process.
class DriftModulator : public ServiceModulator {
 public:
  DriftModulator(SimTime onset, double slope_per_hour, double max_factor = 64.0);

  double TimeFactor(SimTime now) override;

  SimTime onset() const { return onset_; }

 private:
  SimTime onset_;
  double slope_per_hour_;
  double max_factor_;
};

// Per-request multiplicative log-normal noise: short-term, zero-mean-ish
// fluctuation (the ignorable kind). sigma ~0.05-0.2 is realistic.
class RandomJitterModulator : public ServiceModulator {
 public:
  RandomJitterModulator(Rng rng, double sigma);

  double TimeFactor(SimTime now) override;

 private:
  Rng rng_;
  double sigma_;
};

// Renewal process of offline windows: the component disappears for
// `length` every ~`mean_interval` (exponential gaps). Models thermal
// recalibration (Bolosky et al.), garbage-collection pauses (Gribble et
// al.), and deadlock-recovery stalls.
class PeriodicOfflineModulator : public ServiceModulator {
 public:
  PeriodicOfflineModulator(Rng rng, Duration mean_interval, Duration length);

  double TimeFactor(SimTime) override { return 1.0; }
  std::optional<Duration> OfflineUntil(SimTime now) override;

  int windows_generated() const { return windows_generated_; }

 private:
  void AdvanceTo(SimTime now);

  Rng rng_;
  Duration mean_interval_;
  Duration length_;
  SimTime window_start_;
  SimTime window_end_ = SimTime::Zero();
  bool have_window_ = false;
  int windows_generated_ = 0;
};

// Piecewise-constant factor with explicit change points. Used to model
// "performance changes after install-time gauging" (Section 3.2 scenario 2
// failure mode) and heterogeneous upgrades.
class StepModulator : public ServiceModulator {
 public:
  struct Step {
    SimTime at;
    double factor;
  };
  explicit StepModulator(std::vector<Step> steps);

  double TimeFactor(SimTime now) override;

 private:
  std::vector<Step> steps_;  // sorted by `at`
};

}  // namespace fst

#endif  // SRC_FAULTS_PERF_FAULT_H_

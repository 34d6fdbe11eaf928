// The fault injector: binds fault processes to devices on a simulator and
// keeps a ground-truth record of what was injected, against which detector
// accuracy (experiment E10/E12) is scored.
#ifndef SRC_FAULTS_INJECTOR_H_
#define SRC_FAULTS_INJECTOR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/devices/device.h"
#include "src/devices/scsi_bus.h"
#include "src/faults/fault.h"
#include "src/faults/perf_fault.h"
#include "src/obs/recorder.h"
#include "src/simcore/simulator.h"

namespace fst {

// One crash-restart cycle: down for an interval, then back — optionally
// stuttering through a warm-up window while caches refill. Scheduled
// per-device via FaultInjector::ScheduleCrashRestart.
struct CrashRestartFault {
  SimTime at;                          // fail-stop instant
  Duration down_for = Duration::Seconds(2.0);  // Zero => never restarts
  double warmup_factor = 1.0;          // > 1 => slow after restart
  Duration warmup_for = Duration::Zero();
};

class FaultInjector {
 public:
  explicit FaultInjector(Simulator& sim) : sim_(sim) {}

  // Mirrors every recorded injection (and, for step changes, each factor
  // step back to nominal) into the event stream as fault activation /
  // deactivation events, the ground-truth half of the fault-timeline
  // correlator's join.
  void set_recorder(EventRecorder* recorder) { recorder_ = recorder; }

  // -- Performance faults (attach a modulator, record ground truth) --

  // Component is permanently `factor`x slower.
  void InjectStaticSlowdown(FaultableDevice& dev, double factor);

  // Episodic slowdown (two-state Markov process).
  void InjectIntermittentSlowdown(FaultableDevice& dev, double factor,
                                  Duration mean_normal, Duration mean_degraded);

  // Gradual degradation starting at `onset`.
  void InjectDrift(FaultableDevice& dev, SimTime onset, double slope_per_hour,
                   double max_factor = 64.0);

  // Benign per-request jitter (not recorded as a fault: the paper says
  // short random fluctuations "can likely be ignored").
  void InjectJitter(FaultableDevice& dev, double sigma);

  // Offline windows at explicit times (thermal recalibration, GC pauses):
  // no RNG involved, so scenario schedules replay exactly. Each window is
  // (start, length).
  void InjectOfflineWindows(
      FaultableDevice& dev,
      const std::vector<std::pair<SimTime, Duration>>& windows,
      const std::string& kind);

  // Factor changes at explicit times.
  void InjectStepChange(FaultableDevice& dev, std::vector<StepModulator::Step> steps);

  // -- Correctness faults --

  // Fail-stop the device at `when`.
  void ScheduleFailStop(FaultableDevice& dev, SimTime when);

  // Crash-restart lifecycle: fail-stop at `fault.at`, restart after
  // `fault.down_for`, optionally `fault.warmup_factor`x slow for
  // `fault.warmup_for` after the restart (the cold-cache stutter of a
  // rebooted node — the combined fail-stop + performance fault the paper's
  // conclusion asks systems to be tested under). Ground truth records the
  // crash as a correctness fault and the warm-up as a performance fault.
  void ScheduleCrashRestart(FaultableDevice& dev, const CrashRestartFault& fault);

  // -- Infrastructure-level faults --

  // Poisson SCSI timeouts on a chain at `per_day` rate over [0, horizon]
  // (Talagala & Patterson: ~2/day). Returns number scheduled.
  int ScheduleScsiTimeouts(ScsiChain& chain, double per_day, SimTime horizon);

  const std::vector<InjectedFault>& injected() const { return injected_; }

  // Ground truth: was a (recorded) performance fault injected on `component`?
  bool HasPerformanceFault(const std::string& component) const;

 private:
  void Record(SimTime when, FaultClass cls, const std::string& component,
              const std::string& kind, double magnitude);

  Simulator& sim_;
  EventRecorder* recorder_ = nullptr;
  std::vector<InjectedFault> injected_;
};

}  // namespace fst

#endif  // SRC_FAULTS_INJECTOR_H_

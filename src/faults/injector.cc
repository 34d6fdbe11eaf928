#include "src/faults/injector.h"

#include "src/devices/modulators.h"

namespace fst {

void FaultInjector::Record(SimTime when, FaultClass cls,
                           const std::string& component,
                           const std::string& kind, double magnitude) {
  injected_.push_back(InjectedFault{when, cls, component, kind, magnitude});
  if (recorder_ != nullptr && recorder_->enabled()) {
    recorder_->FaultActivate(when, recorder_->Intern(component),
                             recorder_->Intern(kind), magnitude,
                             cls == FaultClass::kCorrectness);
  }
}

void FaultInjector::InjectStaticSlowdown(FaultableDevice& dev, double factor) {
  dev.AttachModulator(std::make_shared<ConstantFactorModulator>(factor));
  Record(sim_.Now(), FaultClass::kPerformance, dev.name(), "static-slowdown",
         factor);
}

void FaultInjector::InjectIntermittentSlowdown(FaultableDevice& dev,
                                               double factor,
                                               Duration mean_normal,
                                               Duration mean_degraded) {
  dev.AttachModulator(std::make_shared<IntermittentSlowdownModulator>(
      sim_.rng().Fork(), factor, mean_normal, mean_degraded));
  Record(sim_.Now(), FaultClass::kPerformance, dev.name(),
         "intermittent-slowdown", factor);
}

void FaultInjector::InjectDrift(FaultableDevice& dev, SimTime onset,
                                double slope_per_hour, double max_factor) {
  dev.AttachModulator(
      std::make_shared<DriftModulator>(onset, slope_per_hour, max_factor));
  Record(onset, FaultClass::kPerformance, dev.name(), "drift", slope_per_hour);
}

void FaultInjector::InjectJitter(FaultableDevice& dev, double sigma) {
  dev.AttachModulator(
      std::make_shared<RandomJitterModulator>(sim_.rng().Fork(), sigma));
  // Deliberately not recorded: benign short-term fluctuation.
}

void FaultInjector::InjectOfflineWindows(
    FaultableDevice& dev,
    const std::vector<std::pair<SimTime, Duration>>& windows,
    const std::string& kind) {
  if (windows.empty()) {
    return;
  }
  auto mod = std::make_shared<OfflineWindowModulator>();
  SimTime first = SimTime::Max();
  Duration longest = Duration::Zero();
  for (const auto& [start, length] : windows) {
    mod->AddWindow(start, length);
    if (start < first) {
      first = start;
    }
    if (length > longest) {
      longest = length;
    }
    if (recorder_ != nullptr && recorder_->enabled()) {
      recorder_->FaultDeactivate(start + length, recorder_->Intern(dev.name()),
                                 recorder_->Intern(kind));
    }
  }
  dev.AttachModulator(std::move(mod));
  Record(first, FaultClass::kPerformance, dev.name(), kind,
         longest.ToSeconds());
}

void FaultInjector::InjectStepChange(FaultableDevice& dev,
                                     std::vector<StepModulator::Step> steps) {
  double worst = 1.0;
  SimTime first = SimTime::Max();
  for (const auto& s : steps) {
    if (s.factor > worst) {
      worst = s.factor;
    }
    if (s.at < first) {
      first = s.at;
    }
  }
  if (recorder_ != nullptr && recorder_->enabled()) {
    // Steps back to (or below) nominal end the fault episode.
    for (const auto& s : steps) {
      if (s.factor <= 1.0) {
        recorder_->FaultDeactivate(s.at, recorder_->Intern(dev.name()),
                                   recorder_->Intern("step-change"));
      }
    }
  }
  dev.AttachModulator(std::make_shared<StepModulator>(std::move(steps)));
  Record(first, FaultClass::kPerformance, dev.name(), "step-change", worst);
}

void FaultInjector::ScheduleFailStop(FaultableDevice& dev, SimTime when) {
  Record(when, FaultClass::kCorrectness, dev.name(), "fail-stop", 0.0);
  FaultableDevice* target = &dev;
  sim_.ScheduleAt(when, [target]() { target->FailStop(); });
}

void FaultInjector::ScheduleCrashRestart(FaultableDevice& dev,
                                         const CrashRestartFault& fault) {
  Record(fault.at, FaultClass::kCorrectness, dev.name(), "crash-restart",
         fault.down_for.ToSeconds());
  FaultableDevice* target = &dev;
  sim_.ScheduleAt(fault.at, [target]() { target->FailStop(); });
  if (fault.down_for.IsZero()) {
    return;  // a plain fail-stop: the device never comes back
  }
  const SimTime up_at = fault.at + fault.down_for;
  const bool warmup = fault.warmup_factor > 1.0 && !fault.warmup_for.IsZero();
  if (warmup) {
    Record(up_at, FaultClass::kPerformance, dev.name(), "restart-warmup",
           fault.warmup_factor);
    dev.AttachModulator(std::make_shared<StepModulator>(
        std::vector<StepModulator::Step>{{up_at, fault.warmup_factor},
                                         {up_at + fault.warmup_for, 1.0}}));
    if (recorder_ != nullptr && recorder_->enabled()) {
      recorder_->FaultDeactivate(up_at + fault.warmup_for,
                                 recorder_->Intern(dev.name()),
                                 recorder_->Intern("restart-warmup"));
    }
  }
  sim_.ScheduleAt(up_at, [this, target, up_at]() {
    target->Restart();
    if (recorder_ != nullptr && recorder_->enabled()) {
      recorder_->FaultDeactivate(up_at, recorder_->Intern(target->name()),
                                 recorder_->Intern("crash-restart"));
    }
  });
}

int FaultInjector::ScheduleScsiTimeouts(ScsiChain& chain, double per_day,
                                        SimTime horizon) {
  const double mean_gap_s = 86400.0 / per_day;
  Rng rng = sim_.rng().Fork();
  SimTime t = SimTime::Zero();
  int scheduled = 0;
  while (true) {
    t = t + Duration::Seconds(rng.Exponential(mean_gap_s));
    if (t > horizon) {
      break;
    }
    ScsiChain* target = &chain;
    sim_.ScheduleAt(t, [target]() { target->TriggerReset(); });
    Record(t, FaultClass::kPerformance, chain.name(), "scsi-timeout-reset",
           chain.reset_duration().ToSeconds());
    ++scheduled;
  }
  return scheduled;
}

bool FaultInjector::HasPerformanceFault(const std::string& component) const {
  for (const auto& f : injected_) {
    if (f.component == component && f.fault_class == FaultClass::kPerformance) {
      return true;
    }
  }
  return false;
}

}  // namespace fst

// Common abstractions shared by all simulated devices.
//
// A device is a FIFO server living on a Simulator. Its service time can be
// perturbed by any number of attached ServiceModulators (implemented by the
// fault library), composing multiplicatively — this is how every
// performance-fault anecdote from Section 2 of the paper is injected without
// the device knowing which fault it suffers from. Absolute (fail-stop)
// failure is a terminal state: pending and future requests complete with
// ok=false so peers can detect the failure, per Schneider's definition.
#ifndef SRC_DEVICES_DEVICE_H_
#define SRC_DEVICES_DEVICE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/simcore/inline_callback.h"
#include "src/simcore/time.h"

namespace fst {

// Multiplicative perturbation of a device's service time. Implementations
// live in src/faults; devices only consume the interface.
class ServiceModulator {
 public:
  virtual ~ServiceModulator() = default;

  // Factor >= 0 applied to the service *time* of a request starting at
  // `now` (2.0 means twice as slow). Factors from all attached modulators
  // multiply together.
  virtual double TimeFactor(SimTime now) = 0;

  // If the component is unavailable at `now` (e.g. thermal recalibration,
  // SCSI bus reset), returns how much longer it stays offline; service is
  // deferred by that amount. nullopt means available.
  virtual std::optional<Duration> OfflineUntil(SimTime now) {
    (void)now;
    return std::nullopt;
  }
};

struct IoResult {
  bool ok = false;
  SimTime issued;
  SimTime completed;
  Duration Latency() const { return completed - issued; }
};

using IoCallback = std::function<void(const IoResult&)>;

// Allocation-free completion sink for device-internal hot paths (Node
// compute, Switch delivery). Copyable IoCallbacks convert implicitly, so
// public APIs built on std::function keep working; per-op serving code
// passes lambdas that stay inline.
using IoSink = InlineFunction<void(const IoResult&)>;

// Base class carrying the modulator set and fail-stop state machine.
class FaultableDevice {
 public:
  explicit FaultableDevice(std::string name) : name_(std::move(name)) {}
  virtual ~FaultableDevice() = default;

  const std::string& name() const { return name_; }

  void AttachModulator(std::shared_ptr<ServiceModulator> m) {
    modulators_.push_back(std::move(m));
  }
  size_t modulator_count() const { return modulators_.size(); }

  // Transitions to the failed (fail-stop) state. Idempotent.
  virtual void FailStop() { failed_ = true; }
  bool has_failed() const { return failed_; }

  // Leaves the failed state (crash-recovery lifecycle): the component comes
  // back up, empty-handed — whatever state it held died with the crash, and
  // callers that care (replication layers) must repair it back to health.
  // Idempotent; a no-op on a device that never failed.
  virtual void Restart() {
    if (!failed_) {
      return;
    }
    failed_ = false;
    NotifyRecovery();
  }
  int restarts() const { return restarts_; }

  // Registers a callback fired once on fail-stop transition.
  void OnFailure(std::function<void()> cb) {
    failure_callbacks_.push_back(std::move(cb));
  }

  // Registers a callback fired once on the next restart transition.
  void OnRecovery(std::function<void()> cb) {
    recovery_callbacks_.push_back(std::move(cb));
  }

 protected:
  // Composite time factor over all modulators at `now`.
  double CompositeTimeFactor(SimTime now) const {
    double f = 1.0;
    for (const auto& m : modulators_) {
      f *= m->TimeFactor(now);
    }
    return f;
  }

  // Longest remaining offline window over all modulators, if any.
  std::optional<Duration> CompositeOffline(SimTime now) const {
    std::optional<Duration> worst;
    for (const auto& m : modulators_) {
      auto off = m->OfflineUntil(now);
      if (off.has_value() && (!worst.has_value() || *off > *worst)) {
        worst = off;
      }
    }
    return worst;
  }

  void NotifyFailure() {
    for (auto& cb : failure_callbacks_) {
      cb();
    }
    failure_callbacks_.clear();
  }

  void NotifyRecovery() {
    ++restarts_;
    // Swap first: a recovery callback may re-arm OnRecovery for a later flap.
    std::vector<std::function<void()>> cbs;
    cbs.swap(recovery_callbacks_);
    for (auto& cb : cbs) {
      cb();
    }
  }

  bool failed_ = false;

 private:
  std::string name_;
  std::vector<std::shared_ptr<ServiceModulator>> modulators_;
  std::vector<std::function<void()>> failure_callbacks_;
  std::vector<std::function<void()>> recovery_callbacks_;
  int restarts_ = 0;
};

}  // namespace fst

#endif  // SRC_DEVICES_DEVICE_H_

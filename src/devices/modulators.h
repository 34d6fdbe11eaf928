// Basic mechanism-level service modulators. Richer stochastic fault
// processes live in src/faults; these two are simple enough that device
// infrastructure (SCSI chains, tests) uses them directly.
#ifndef SRC_DEVICES_MODULATORS_H_
#define SRC_DEVICES_MODULATORS_H_

#include <algorithm>
#include <vector>

#include "src/devices/device.h"
#include "src/simcore/time.h"

namespace fst {

// Always-on multiplicative slowdown (or speedup, factor < 1).
class ConstantFactorModulator : public ServiceModulator {
 public:
  explicit ConstantFactorModulator(double factor) : factor_(factor) {}
  double TimeFactor(SimTime) override { return factor_; }
  double factor() const { return factor_; }

 private:
  double factor_;
};

// A set of explicit offline windows; the component is unavailable while
// inside any of them. Used for SCSI bus resets and thermal recalibration.
class OfflineWindowModulator : public ServiceModulator {
 public:
  void AddWindow(SimTime start, Duration length) {
    windows_.push_back({start, start + length});
  }

  double TimeFactor(SimTime) override { return 1.0; }

  std::optional<Duration> OfflineUntil(SimTime now) override {
    Duration worst = Duration::Zero();
    for (const auto& w : windows_) {
      if (now >= w.start && now < w.end) {
        worst = std::max(worst, w.end - now);
      }
    }
    if (worst.IsZero()) {
      return std::nullopt;
    }
    return worst;
  }

 private:
  struct Window {
    SimTime start;
    SimTime end;
  };
  std::vector<Window> windows_;
};

}  // namespace fst

#endif  // SRC_DEVICES_MODULATORS_H_

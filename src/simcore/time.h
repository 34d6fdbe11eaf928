// Virtual time for the discrete-event simulator.
//
// All simulation time is kept as integer nanoseconds to make runs exactly
// reproducible across platforms; doubles appear only at the edges (rate
// computations, human-readable output).
#ifndef SRC_SIMCORE_TIME_H_
#define SRC_SIMCORE_TIME_H_

#include <cstdint>
#include <limits>
#include <string>

namespace fst {

// A span of virtual time, in nanoseconds. Negative durations are permitted
// in arithmetic but never valid as a scheduling delay.
class Duration {
 public:
  constexpr Duration() = default;
  constexpr explicit Duration(int64_t ns) : ns_(ns) {}

  static constexpr Duration Nanos(int64_t n) { return Duration(n); }
  static constexpr Duration Micros(int64_t n) { return Duration(n * 1000); }
  static constexpr Duration Millis(int64_t n) { return Duration(n * 1000000); }
  static constexpr Duration Seconds(double s) {
    return Duration(static_cast<int64_t>(s * 1e9));
  }
  static constexpr Duration Minutes(double m) { return Seconds(m * 60.0); }
  static constexpr Duration Hours(double h) { return Seconds(h * 3600.0); }
  static constexpr Duration Zero() { return Duration(0); }
  static constexpr Duration Max() {
    return Duration(std::numeric_limits<int64_t>::max());
  }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double ToSeconds() const { return static_cast<double>(ns_) / 1e9; }

  constexpr bool IsZero() const { return ns_ == 0; }
  constexpr bool IsNegative() const { return ns_ < 0; }

  constexpr Duration operator+(Duration o) const { return Duration(ns_ + o.ns_); }
  constexpr Duration operator-(Duration o) const { return Duration(ns_ - o.ns_); }
  constexpr Duration operator*(double f) const {
    return Duration(static_cast<int64_t>(static_cast<double>(ns_) * f));
  }
  constexpr Duration operator/(double f) const {
    return Duration(static_cast<int64_t>(static_cast<double>(ns_) / f));
  }
  constexpr double operator/(Duration o) const {
    return static_cast<double>(ns_) / static_cast<double>(o.ns_);
  }
  Duration& operator+=(Duration o) {
    ns_ += o.ns_;
    return *this;
  }
  Duration& operator-=(Duration o) {
    ns_ -= o.ns_;
    return *this;
  }
  constexpr auto operator<=>(const Duration&) const = default;

  // Renders as a human-friendly string with an adaptive unit, e.g. "3.20ms".
  std::string ToString() const;

 private:
  int64_t ns_ = 0;
};

// An absolute point in virtual time. Simulations start at Zero().
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(int64_t ns) : ns_(ns) {}

  static constexpr SimTime Zero() { return SimTime(0); }
  static constexpr SimTime Max() {
    return SimTime(std::numeric_limits<int64_t>::max());
  }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double ToSeconds() const { return static_cast<double>(ns_) / 1e9; }

  constexpr SimTime operator+(Duration d) const { return SimTime(ns_ + d.nanos()); }
  constexpr SimTime operator-(Duration d) const { return SimTime(ns_ - d.nanos()); }
  constexpr Duration operator-(SimTime o) const { return Duration(ns_ - o.ns_); }
  constexpr auto operator<=>(const SimTime&) const = default;

  std::string ToString() const;

 private:
  int64_t ns_ = 0;
};

}  // namespace fst

#endif  // SRC_SIMCORE_TIME_H_

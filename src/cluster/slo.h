// Service-level-objective accounting for the serving layer.
//
// Goodput is the number the paper's argument turns on: raw throughput hides
// a stutterer (late answers still count), so the tracker splits acks into
// in-deadline (goodput) and late, and separately counts shed and errored
// requests. Latencies accumulate in the shared log-linear Histogram and
// surface as p50/p95/p99/p999 via ValueAtQuantile.
#ifndef SRC_CLUSTER_SLO_H_
#define SRC_CLUSTER_SLO_H_

#include <cstdint>
#include <string>

#include "src/simcore/stats.h"
#include "src/simcore/time.h"

namespace fst {

// Terminal outcome kinds of one op.
enum class SloOutcome : uint8_t { kAck = 0, kShed = 1, kError = 2 };

// One terminal op outcome as appended to a completion ring by the serving
// layer and drained in FIFO (= completion) order by the front end. `tag`
// is caller context (a client id). The SloTracker has already counted the
// op by the time its record is appended.
struct CompletionRecord {
  uint64_t tag = 0;
  SloOutcome outcome = SloOutcome::kAck;
};

// One consistent read of every SloTracker counter plus the latency
// quantiles — the unit a telemetry tick forwards to the live plane (and
// anything else that wants deltas without racing ReportJson's formatting).
struct SloSnapshot {
  int64_t arrivals = 0;
  int64_t acks = 0;
  int64_t goodput = 0;  // acks within the deadline
  int64_t late = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  int64_t first_try_acks = 0;
  int64_t retried_acks = 0;
  int64_t exhausted = 0;
  int64_t retries = 0;
  // Per-outcome service-attempt totals: how much replica work each
  // terminal outcome actually consumed (acks + sheds + errors account
  // every attempt exactly once).
  int64_t ack_attempts = 0;
  int64_t shed_attempts = 0;
  int64_t error_attempts = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  // Retry-budget state at snapshot time, filled by KvService::SloWithRetry
  // (zero through the plain SloTracker::Snapshot path — the tracker itself
  // does not know about the retry policy). Campaign code asserts on these
  // to show the token bucket engaging during a retry storm.
  double retry_tokens = 0.0;
  int64_t retry_denied_budget = 0;

  // Terminal outcomes that failed the objective (late, shed, errored).
  int64_t bad() const { return late + shed + errors; }
  // All terminal outcomes.
  int64_t terminal() const { return acks + shed + errors; }
};

class SloTracker {
 public:
  explicit SloTracker(Duration deadline) : deadline_(deadline) {}

  void RecordArrival() { ++arrivals_; }
  // `attempts` is how many service attempts the operation consumed before
  // this terminal outcome (1 = no retries). The split distinguishes work
  // retries saved (retried successes) from work they merely deferred
  // (exhausted: ops that burned every attempt and still failed).
  void RecordShed(int attempts = 1) {
    ++shed_;
    shed_attempts_ += attempts;
    AccountAttempts(attempts, /*ok=*/false);
  }
  void RecordError(int attempts = 1) {
    ++errors_;
    error_attempts_ += attempts;
    AccountAttempts(attempts, /*ok=*/false);
  }
  void RecordAck(Duration latency, int attempts = 1) {
    ++acks_;
    ack_attempts_ += attempts;
    AccountAttempts(attempts, /*ok=*/true);
    latency_.AddDuration(latency);
    if (latency <= deadline_) {
      ++goodput_;
    } else {
      ++late_;
    }
  }

  int64_t arrivals() const { return arrivals_; }
  int64_t acks() const { return acks_; }
  int64_t goodput() const { return goodput_; }  // acks within the deadline
  int64_t late() const { return late_; }
  int64_t shed() const { return shed_; }
  int64_t errors() const { return errors_; }
  int64_t first_try_acks() const { return first_try_acks_; }
  int64_t retried_acks() const { return retried_acks_; }
  // Terminal failures that consumed more than one attempt (retry budget or
  // deadline ran out without a success).
  int64_t exhausted() const { return exhausted_; }
  int64_t retries() const { return retries_; }  // extra attempts, all ops
  int64_t ack_attempts() const { return ack_attempts_; }
  int64_t shed_attempts() const { return shed_attempts_; }
  int64_t error_attempts() const { return error_attempts_; }
  Duration deadline() const { return deadline_; }
  const Histogram& latency() const { return latency_; }

  double GoodputPerSec(Duration horizon) const {
    const double s = horizon.ToSeconds();
    return s > 0.0 ? static_cast<double>(goodput_) / s : 0.0;
  }
  double ShedRate() const {
    return arrivals_ > 0
               ? static_cast<double>(shed_) / static_cast<double>(arrivals_)
               : 0.0;
  }

  double P50Ms() const { return latency_.ValueAtQuantile(0.50) / 1e6; }
  double P95Ms() const { return latency_.ValueAtQuantile(0.95) / 1e6; }
  double P99Ms() const { return latency_.ValueAtQuantile(0.99) / 1e6; }
  double P999Ms() const { return latency_.ValueAtQuantile(0.999) / 1e6; }

  // One consistent read of all counters + quantiles.
  SloSnapshot Snapshot() const;

  // Fixed-format JSON object (stable across platforms and thread counts);
  // `horizon` is the serving window goodput is normalized over.
  std::string ReportJson(Duration horizon) const;

 private:
  void AccountAttempts(int attempts, bool ok) {
    if (attempts > 1) {
      retries_ += attempts - 1;
      if (ok) {
        ++retried_acks_;
      } else {
        ++exhausted_;
      }
    } else if (ok) {
      ++first_try_acks_;
    }
  }

  Duration deadline_;
  int64_t arrivals_ = 0;
  int64_t acks_ = 0;
  int64_t goodput_ = 0;
  int64_t late_ = 0;
  int64_t shed_ = 0;
  int64_t errors_ = 0;
  int64_t first_try_acks_ = 0;
  int64_t retried_acks_ = 0;
  int64_t exhausted_ = 0;
  int64_t retries_ = 0;
  int64_t ack_attempts_ = 0;
  int64_t shed_attempts_ = 0;
  int64_t error_attempts_ = 0;
  Histogram latency_;
};

}  // namespace fst

#endif  // SRC_CLUSTER_SLO_H_

// Client-side retry with exponential backoff, deadlines, and a budget.
//
// Retries are the other half of the robustness story: ejection and repair
// fix the *server* side of a fail-stutter episode, but in the window before
// detection fires the *client* still sees failures and sheds. A bounded
// retry policy converts many of those transient failures into slightly-late
// successes — while three guards keep retries from amplifying an overload
// into a retry storm (the classic metastable failure):
//
//   1. Attempt cap: at most `max_attempts` total service attempts per op.
//   2. Deadline budget: an op stops retrying once its elapsed time plus the
//      pending backoff would exceed its end-to-end `deadline`. The budget is
//      per-operation, so hedges and retries share one clock.
//   3. Retry budget (circuit breaker): a token bucket earns `budget_ratio`
//      tokens per arrival (capped at `budget_cap`) and each granted retry
//      spends one. When the failure rate exceeds the earn rate the bucket
//      empties and retries are denied cluster-wide until first-try traffic
//      refills it — exactly the "retry budget" pattern from production RPC
//      stacks.
//
// Backoff is exponential with deterministic jitter: attempt k waits
// base * multiplier^(k-1), capped at `max_backoff`, then scaled by a factor
// drawn uniformly from [1 - jitter, 1] out of the policy's own forked RNG
// stream. Jitter decorrelates retry waves without breaking replay: the
// stream is only consulted when a retry is actually granted, so decision
// sequences are bit-stable for a given seed.
#ifndef SRC_CLUSTER_RETRY_H_
#define SRC_CLUSTER_RETRY_H_

#include <cstdint>

#include "src/simcore/rng.h"
#include "src/simcore/time.h"

namespace fst {

struct RetryParams {
  bool enabled = false;
  // Total attempts per op, first try included.
  int max_attempts = 4;
  Duration base_backoff = Duration::Millis(10);
  double multiplier = 2.0;
  Duration max_backoff = Duration::Millis(160);
  // Backoff is scaled by uniform [1 - jitter, 1]; 0 disables jitter.
  double jitter = 0.5;
  // End-to-end per-op deadline; Zero means no deadline cap.
  Duration deadline = Duration::Zero();
  // Token-bucket circuit breaker: tokens earned per arrival, and the cap.
  double budget_ratio = 0.2;
  double budget_cap = 32.0;
  // Master switch for guard 3. Default on — turning it off removes the
  // only cluster-wide brake on retry amplification, which is exactly what
  // the retry-storm chaos scenario needs to demonstrate metastable
  // collapse (and what production configs must never do).
  bool budget = true;
};

// Point-in-time view of the token bucket, for SLO snapshots and campaign
// assertions on budget behavior.
struct RetrySnapshot {
  double tokens = 0.0;
  int64_t granted = 0;
  int64_t denied_attempts = 0;
  int64_t denied_deadline = 0;
  int64_t denied_budget = 0;
};

class RetryPolicy {
 public:
  struct Decision {
    bool retry = false;
    Duration backoff = Duration::Zero();
  };

  struct Stats {
    int64_t granted = 0;
    int64_t denied_attempts = 0;
    int64_t denied_deadline = 0;
    int64_t denied_budget = 0;
  };

  RetryPolicy(RetryParams params, Rng rng)
      : params_(params), rng_(rng), tokens_(params.budget_cap) {}

  // Earns budget tokens; call once per client arrival.
  void OnArrival() {
    tokens_ += params_.budget_ratio;
    if (tokens_ > params_.budget_cap) {
      tokens_ = params_.budget_cap;
    }
  }

  // Should an op that has made `attempts_made` attempts and been in flight
  // for `elapsed` try again? Draws jitter (and spends a token) only when
  // the answer is yes.
  Decision Consider(int attempts_made, Duration elapsed);

  const Stats& stats() const { return stats_; }
  const RetryParams& params() const { return params_; }
  double tokens() const { return tokens_; }

  RetrySnapshot Snapshot() const {
    RetrySnapshot s;
    s.tokens = tokens_;
    s.granted = stats_.granted;
    s.denied_attempts = stats_.denied_attempts;
    s.denied_deadline = stats_.denied_deadline;
    s.denied_budget = stats_.denied_budget;
    return s;
  }

 private:
  Duration BackoffFor(int attempts_made);

  RetryParams params_;
  // The policy's private jitter stream.
  Rng rng_;
  double tokens_;
  Stats stats_;
};

}  // namespace fst

#endif  // SRC_CLUSTER_RETRY_H_

#include "src/chaos/policy.h"

#include <cmath>
#include <stdexcept>

namespace fst {

ResilienceEngine::ResilienceEngine(Simulator& sim, KvService& service,
                                   FaultInjector& injector,
                                   RejuvenationParams rejuvenation,
                                   EvictionParams eviction)
    : sim_(sim),
      service_(service),
      injector_(injector),
      rejuvenation_(rejuvenation),
      eviction_(eviction),
      above_count_(static_cast<size_t>(service.params().nodes), 0),
      clear_count_(static_cast<size_t>(service.params().nodes), 0),
      evicted_(static_cast<size_t>(service.params().nodes), false) {
  if ((rejuvenation_.enabled || eviction_.enabled) &&
      service_.live() == nullptr) {
    throw std::invalid_argument(
        "ResilienceEngine: patterns need the service live plane enabled");
  }
  if (rejuvenation_.enabled && rejuvenation_.period <= Duration::Zero()) {
    throw std::invalid_argument(
        "ResilienceEngine: rejuvenation period must be positive");
  }
  if (eviction_.enabled && eviction_.clear_score > eviction_.evict_score) {
    throw std::invalid_argument(
        "ResilienceEngine: eviction clear_score exceeds evict_score");
  }
}

void ResilienceEngine::Start(SimTime until) {
  if (rejuvenation_.enabled) {
    // First restart one full period in: the tracker needs its warmup
    // windows before scores mean anything.
    sim_.ScheduleAt(sim_.Now() + rejuvenation_.period,
                    [this, until] { RejuvenationTick(until); });
  }
  if (eviction_.enabled) {
    // Tick one millisecond after each telemetry tick so the windows the
    // service just closed are visible to this decision.
    const Duration window = service_.live()->window();
    sim_.ScheduleAt(sim_.Now() + window + Duration::Millis(1),
                    [this, until] { EvictionTick(until); });
  }
  if (rejuvenation_.enabled || eviction_.enabled) {
    sim_.ScheduleAt(until, [this] { Quiesce(); });
  }
}

void ResilienceEngine::RejuvenationTick(SimTime until) {
  if (sim_.Now() >= until) {
    return;
  }
  // Stagger gate: a proactive restart is only safe when the cluster is
  // whole — every node up, none ejected, every weight 1.0. Anything less
  // means a crash, repair, or ramp is already in flight and a second
  // simultaneous outage could break quorum or ownership invariants.
  bool whole = true;
  for (int i = 0; i < service_.params().nodes; ++i) {
    if (service_.node(i)->has_failed() || service_.shard_map().IsEjected(i) ||
        std::fabs(service_.selector().WeightOf(i) - 1.0) > 1e-9) {
      whole = false;
      break;
    }
  }
  if (whole) {
    // Most-suspect node: highest live stutter score >= min_score, ties to
    // the lowest index (deterministic).
    const ExpectationTracker& exp = service_.live()->expectation();
    int target = -1;
    double best = rejuvenation_.min_score;
    for (int i = 0; i < service_.params().nodes; ++i) {
      const double score = exp.StutterScore(i);
      if (score > best) {
        best = score;
        target = i;
      }
    }
    if (target >= 0) {
      // Route through the injector's crash-restart lifecycle: ground
      // truth records the outage (the detector scorecard would otherwise
      // count the ejection as a false positive), and detection, eject,
      // repair, and the rejoin ramp all run the proven organic-crash path.
      CrashRestartFault f;
      f.at = sim_.Now();
      f.down_for = rejuvenation_.down_for;
      injector_.ScheduleCrashRestart(*service_.node(target), f);
      ++stats_.rejuvenations;
    } else {
      ++stats_.rejuvenations_skipped;  // nobody suspect enough
    }
  } else {
    ++stats_.rejuvenations_skipped;
  }
  sim_.ScheduleAt(sim_.Now() + rejuvenation_.period,
                  [this, until] { RejuvenationTick(until); });
}

void ResilienceEngine::EvictionTick(SimTime until) {
  if (sim_.Now() >= until) {
    return;
  }
  const ExpectationTracker& exp = service_.live()->expectation();
  for (int i = 0; i < service_.params().nodes; ++i) {
    const auto idx = static_cast<size_t>(i);
    // A node the crash lifecycle owns (down or ejected) is not ours to
    // manage: drop any predictive hold so recovery's weight ramp is the
    // sole writer when it rejoins.
    if (service_.node(i)->has_failed() || service_.shard_map().IsEjected(i)) {
      above_count_[idx] = 0;
      clear_count_[idx] = 0;
      evicted_[idx] = false;
      continue;
    }
    const double score = exp.StutterScore(i);
    if (!evicted_[idx]) {
      if (score >= eviction_.evict_score) {
        if (++above_count_[idx] >= eviction_.evict_windows) {
          service_.SubmitControl(
              {ConfigChangeKind::kSetWeight, i, eviction_.evict_weight});
          evicted_[idx] = true;
          above_count_[idx] = 0;
          clear_count_[idx] = 0;
          ++stats_.evictions;
        }
      } else {
        above_count_[idx] = 0;
      }
    } else {
      if (score < eviction_.clear_score) {
        if (++clear_count_[idx] >= eviction_.clear_windows) {
          service_.SubmitControl({ConfigChangeKind::kSetWeight, i, 1.0});
          evicted_[idx] = false;
          clear_count_[idx] = 0;
          ++stats_.restores;
        }
      } else {
        clear_count_[idx] = 0;
      }
    }
  }
  sim_.ScheduleAt(sim_.Now() + service_.live()->window(),
                  [this, until] { EvictionTick(until); });
}

void ResilienceEngine::Quiesce() {
  // Arrivals have stopped, so windows go empty and scores freeze — a node
  // evicted during the last busy window would otherwise stay held down
  // forever and fail the healthy-weight convergence invariant. Scheduled
  // as a simulation event (not post-run code) so consensus-routed
  // restores still commit during the settle window.
  for (int i = 0; i < service_.params().nodes; ++i) {
    const auto idx = static_cast<size_t>(i);
    if (!evicted_[idx]) {
      continue;
    }
    service_.SubmitControl({ConfigChangeKind::kSetWeight, i, 1.0});
    evicted_[idx] = false;
    ++stats_.quiesce_restores;
  }
}

}  // namespace fst

#include "src/chaos/cell.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/cluster/fleet/fleet.h"
#include "src/core/policy.h"
#include "src/faults/fault.h"
#include "src/harness/sweep.h"
#include "src/harness/thread_pool.h"
#include "src/obs/correlator.h"
#include "src/obs/live/live_plane.h"
#include "src/obs/recorder.h"

namespace fst {
namespace {

// RunCell's invariants, in the order its comment lists them; `report` is
// the live plane's fault correlation (null with the plane off).
void CheckRunInvariants(KvService& svc, const CorrelationReport* report,
                        const ConsensusGroup* group,
                        Duration unavailability_bound, CellOutcome& out) {
  std::vector<std::string>& violations = out.violations;
  if (report != nullptr) {
    // Count consistency is unconditional; crash coverage holds because
    // every generated crash (and every proactive rejuvenation restart)
    // keeps its node down past the liveness timeout, so the heartbeat (or
    // a failed data-path request) must declare it.
    const DetectorScorecard& card = out.scorecard;
    if (card.detected + card.missed != card.faults) {
      violations.push_back("scorecard count mismatch: detected " +
                           std::to_string(card.detected) + " + missed " +
                           std::to_string(card.missed) + " != faults " +
                           std::to_string(card.faults));
    }
    for (const FaultRecord& f : report->faults) {
      if (f.kind == "crash-restart" && !f.detected) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "crash on %s at %.3fs never detected", f.device.c_str(),
                      f.injected_at.ToSeconds());
        violations.push_back(buf);
      }
    }
  }

  const int nodes = svc.params().nodes;
  if (group != nullptr) {
    for (std::string& v : group->CheckInvariants(unavailability_bound)) {
      violations.push_back(std::move(v));
    }
    // No split-brain ownership: at quiesce the serving map and weights
    // must equal the feed replica's applied state bit-for-bit — the
    // service holds no ownership fact the quorum never committed.
    const ControlState& feed = group->replica(0).state();
    if (!svc.shard_map().SameOwnership(feed.map())) {
      violations.push_back(
          "serving shard map diverged from feed replica applied state");
    }
    for (int i = 0; i < nodes; ++i) {
      if (svc.selector().WeightOf(i) != feed.weight(i)) {
        char buf[112];
        std::snprintf(buf, sizeof(buf),
                      "node%d serving weight %.6f != committed %.6f", i,
                      svc.selector().WeightOf(i), feed.weight(i));
        violations.push_back(buf);
      }
    }
    if (group->pending_proposals() != 0) {
      violations.push_back(std::to_string(group->pending_proposals()) +
                           " control proposals never committed by end of run");
    }
  }

  if (out.lost_acked > 0) {
    violations.push_back("lost_acked_writes=" +
                         std::to_string(out.lost_acked));
  }
  if (out.under_replicated > 0) {
    violations.push_back("under_replicated_keys=" +
                         std::to_string(out.under_replicated));
  }
  for (int i = 0; i < nodes; ++i) {
    const std::string name = "node" + std::to_string(i);
    const PerfState st = svc.registry().StateOf(name);
    if (svc.node(i)->has_failed()) {
      violations.push_back(name + " still down at end of run");
      continue;
    }
    if (st == PerfState::kFailed) {
      violations.push_back(name + " stuck kFailed though the device is up");
    }
    const bool ejected = svc.shard_map().IsEjected(i);
    if (ejected && st != PerfState::kStuttering) {
      violations.push_back(name + " ejected though state is " +
                           PerfStateName(st));
    }
    if (st == PerfState::kHealthy && !ejected &&
        std::fabs(svc.selector().WeightOf(i) - 1.0) > 1e-9) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s healthy but weight %.4f != 1.0",
                    name.c_str(), svc.selector().WeightOf(i));
      violations.push_back(buf);
    }
  }
}

// The run lasts run_for + settle: heartbeats, repair, the control plane
// and the weight ramps stop there, so a fault still in effect at that
// point would be judged as a recovery the run never gave a chance.
void ValidateSpec(const CellSpec& spec) {
  if (spec.settle.IsNegative()) {
    throw std::invalid_argument("CellSpec.settle must be >= 0");
  }
  const double horizon_ns = static_cast<double>(spec.fleet.run_for.nanos()) +
                            static_cast<double>(spec.settle.nanos());
  for (const ChaosEvent& e : spec.schedule.events) {
    const double end_ns = EventEndNs(e);
    if (end_ns > horizon_ns) {
      std::string stmt = ChaosSchedule{{e}}.ToDsl();
      stmt.pop_back();  // the statement's newline
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.3fs, after run_for + settle = %.3fs",
                    end_ns / 1e9, horizon_ns / 1e9);
      throw std::invalid_argument("CellSpec.schedule: event '" + stmt +
                                  "' ends at " + buf);
    }
  }
}

}  // namespace

CellOutcome RunCell(const CellSpec& spec, bool keep_live_series) {
  ValidateSpec(spec);
  Simulator sim(spec.seed);
  const Duration run_for = spec.fleet.run_for;
  const bool live = spec.cluster.live.enabled;

  // 1-2. The fleet needs the schedule's surge windows before it forks its
  // first arrival stream.
  FleetParams fleet_params = spec.fleet;
  fleet_params.surges = SurgeWindows(spec.schedule);
  const std::vector<ArrivalSurge>& surges = fleet_params.surges;
  ColumnarFleet fleet(sim, fleet_params);

  // 3. Control-only: the correlator reads faults, transitions and policy
  // actions, never request spans.
  std::optional<EventRecorder> recorder;
  if (live) {
    recorder.emplace();
    recorder->set_request_spans(false);
  }
  EventRecorder* rec = recorder ? &*recorder : nullptr;

  // 4.
  KvService svc(sim, spec.cluster, std::make_unique<ProportionalSharePolicy>(),
                rec);
  std::unique_ptr<ConsensusGroup> group;
  if (spec.consensus) {
    ConsensusParams cp = *spec.consensus;
    cp.data_nodes = spec.cluster.nodes;
    cp.shard = spec.cluster.shard;
    group = std::make_unique<ConsensusGroup>(sim, cp, rec);
    BindControlPlane(*group, svc);
  }

  // 5.
  FaultInjector injector(sim);
  injector.set_recorder(rec);
  LeaderResolver leader_of;
  if (group) {
    leader_of = [g = group.get()]() -> FaultableDevice* {
      return &g->LeaderDeviceOrFallback();
    };
  }
  ApplySchedule(sim, svc, spec.schedule, injector, leader_of);

  // 6.
  ResilienceEngine engine(sim, svc, injector, spec.rejuvenation,
                          spec.eviction);
  CellOutcome out;
  // Retry-storm verdict sampling: goodput rate in a window just before the
  // trigger vs one starting a grace period after it clears. Metastable
  // collapse is exactly "the trigger is gone but the rate never comes
  // back" — post under half of pre.
  int64_t pre_a = 0, pre_b = 0, post_a = 0, post_b = 0;
  double pre_len_s = 0.0, post_len_s = 0.0;
  if (!surges.empty()) {
    out.storm = true;
    const ArrivalSurge& w = surges.front();
    const double at_s = w.at.ToSeconds();
    const double clear_s = at_s + w.duration.ToSeconds();
    const double run_s = run_for.ToSeconds();
    // The post window is the final 3s of the run — at least 7.5s after
    // the latest possible trigger clears (storms sit in the first third
    // of the run by construction). A budget-braked backlog drains in
    // 2-8s at these rates depending on how hard the surge hit, so
    // measuring at the very end separates a slow honest recovery from
    // the metastable state, which by definition never comes back no
    // matter how long the trigger has been gone.
    const double pre_start = std::max(0.0, at_s - 3.0);
    const double post_start = std::max(clear_s, run_s - 3.0);
    const double post_end = run_s;
    pre_len_s = at_s - pre_start;
    post_len_s = post_end - post_start;
    sim.ScheduleAt(SimTime::Zero() + Duration::Seconds(pre_start),
                   [&] { pre_a = svc.slo().goodput(); });
    sim.ScheduleAt(SimTime::Zero() + Duration::Seconds(at_s),
                   [&] { pre_b = svc.slo().goodput(); });
    sim.ScheduleAt(SimTime::Zero() + Duration::Seconds(post_start),
                   [&] { post_a = svc.slo().goodput(); });
    sim.ScheduleAt(SimTime::Zero() + Duration::Seconds(post_end),
                   [&] { post_b = svc.slo().goodput(); });
  }

  // 7-8.
  const SimTime end_of_run = SimTime::Zero() + run_for + spec.settle;
  svc.StartRecovery(end_of_run);
  svc.StartTelemetry(end_of_run);
  engine.Start(SimTime::Zero() + run_for);
  if (group) {
    group->Start(end_of_run);
  }
  fleet.Run(svc, [](const FleetResult&) {});
  sim.Run();

  out.seed = spec.seed;
  out.dsl = spec.schedule.ToDsl();
  for (const InjectedFault& f : injector.injected()) {
    char line[160];
    std::snprintf(line, sizeof(line), "%.3fs %s %s x%.3g",
                  f.when.ToSeconds(), f.component.c_str(), f.kind.c_str(),
                  f.magnitude);
    out.fault_timeline.push_back(line);
  }
  out.fire_digest = sim.fire_digest();
  out.outcome_digest = svc.outcome_digest();
  out.goodput_per_sec = svc.slo().GoodputPerSec(run_for);
  out.arrivals = svc.slo().arrivals();
  out.retries = svc.slo().retries();
  const RetrySnapshot budget = svc.retry().Snapshot();
  out.denied_budget = budget.denied_budget;
  out.retry_tokens = budget.tokens;
  out.crashes = svc.crashes();
  out.recoveries = svc.recoveries();
  out.keys_repaired = svc.keys_repaired();
  out.read_misses = svc.read_misses();
  out.acked_keys = svc.acked_keys();
  out.lost_acked = svc.lost_acked_writes();
  out.under_replicated = svc.under_replicated_keys();
  out.rejuvenations = engine.stats().rejuvenations;
  out.evictions = engine.stats().evictions;
  out.restores = engine.stats().restores + engine.stats().quiesce_restores;
  out.nmr_reads = svc.nmr_reads();
  out.nmr_acks = svc.nmr_acks();
  if (out.storm) {
    out.pre_storm_rate =
        pre_len_s > 0.0 ? static_cast<double>(pre_b - pre_a) / pre_len_s : 0.0;
    out.post_storm_rate =
        post_len_s > 0.0 ? static_cast<double>(post_b - post_a) / post_len_s
                         : 0.0;
    out.collapsed = out.post_storm_rate < 0.5 * out.pre_storm_rate;
  }

  CorrelationReport report;
  if (live) {
    out.telemetry = true;
    const LivePlane& plane = *svc.live();
    report = CorrelateFaultTimeline(recorder->Events(), recorder->components());
    const std::vector<GraySpan> spans = plane.expectation().GraySpans();
    out.scorecard = BuildScorecard(report, spans, end_of_run, spec.scorecard);
    out.gray_spans = static_cast<int>(spans.size());
    for (const GraySpan& s : spans) {
      out.gray_exposure_s += (s.end - s.start).ToSeconds();
    }
    out.burn_raised = plane.burn().raised_count();
    out.burn_cleared = plane.burn().cleared_count();
    for (int i = 0; i < spec.cluster.nodes; ++i) {
      out.max_stutter_score =
          std::max(out.max_stutter_score, plane.expectation().MaxScore(i));
    }
    if (keep_live_series) {
      out.live_json = plane.Json();
      out.slo_json = svc.slo().ReportJson(run_for);
    }
  }

  if (group) {
    out.control_plane = true;
    out.elections = group->elections_started();
    out.elections_won = group->elections_won();
    out.false_failovers = group->false_failovers();
    out.entries_committed = static_cast<int64_t>(group->max_commit());
    out.snapshots = group->snapshots_taken() + group->snapshots_installed();
    out.reconfigs = group->reconfigs_applied();
    out.reconfig_mean_ms = group->reconfig_mean_ms();
    out.reconfig_max_ms = group->reconfig_max_ms();
    out.leaderless_s = group->leaderless_seconds();
    out.max_leaderless_s = group->max_leaderless_seconds();
  }

  CheckRunInvariants(svc, live ? &report : nullptr, group.get(),
                     spec.unavailability_bound, out);
  out.ok = out.violations.empty();
  return out;
}

std::vector<CellOutcome> RunCells(const std::vector<CellSpec>& specs,
                                  int threads, bool keep_live_series) {
  std::vector<CellOutcome> out(specs.size());
  ThreadPool pool(PoolWorkers(
      threads > 0 ? threads : SweepRunner::ThreadsFromEnv(), specs.size()));
  // Position-addressed: cell i lands in out[i] whichever worker runs it.
  pool.ParallelFor(specs.size(), [&](size_t i) {
    out[i] = RunCell(specs[i], keep_live_series);
  });
  return out;
}

std::string OneLineDsl(const std::string& dsl) {
  std::string out;
  for (const char c : dsl) {
    if (c == '\n') {
      out += "; ";
    } else {
      out += c;
    }
  }
  // ToDsl ends every statement with a newline: drop the last separator.
  return out.size() >= 2 ? out.substr(0, out.size() - 2) : out;
}

std::string ReplayReport(const CellOutcome& out) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "digest: %016llx\noutcome_digest: %016llx\n",
                static_cast<unsigned long long>(out.fire_digest),
                static_cast<unsigned long long>(out.outcome_digest));
  std::string text = buf;
  for (const std::string& v : out.violations) {
    text += "violation: " + v + "\n";
  }
  text += "dsl: " + OneLineDsl(out.dsl) + "\n";
  return text;
}

}  // namespace fst

#include "src/chaos/campaign.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/cluster/client.h"
#include "src/core/policy.h"
#include "src/faults/fault.h"
#include "src/harness/sweep.h"
#include "src/obs/correlator.h"
#include "src/obs/export.h"
#include "src/obs/live/report.h"
#include "src/obs/recorder.h"

namespace fst {

SeedOutcome RunChaosSeed(const CampaignParams& p, uint64_t seed) {
  Simulator sim(seed);

  FleetParams fleet_params;
  fleet_params.arrivals_per_sec = p.arrivals_per_sec;
  fleet_params.run_for = p.run_for;
  fleet_params.read_fraction = p.read_fraction;
  fleet_params.key_space = p.key_space;
  ClientFleet fleet(sim, fleet_params);

  ClusterParams cluster;
  cluster.nodes = p.nodes;
  cluster.shard.replication = p.replication;
  cluster.write_quorum = p.write_quorum;
  cluster.retry.enabled = true;
  cluster.retry.deadline = Duration::Millis(800);
  cluster.recovery.enabled = true;
  // Used only on the telemetry path, and control-only: the correlator
  // reads faults, transitions and policy actions, never request spans.
  EventRecorder recorder;
  recorder.set_request_spans(false);
  if (p.telemetry) {
    cluster.live = p.live;
    cluster.live.enabled = true;
  }
  KvService svc(sim, cluster, std::make_unique<ProportionalSharePolicy>(),
                p.telemetry ? &recorder : nullptr);

  // The consensus group forks its RNG streams off the simulator root at
  // construction, so it must be built only on the control-plane path —
  // otherwise legacy seeds would see a shifted stream and lose their
  // pinned digests.
  std::unique_ptr<ConsensusGroup> group;
  if (p.control_plane) {
    ConsensusParams cp = p.consensus;
    cp.data_nodes = p.nodes;
    cp.shard = cluster.shard;
    group = std::make_unique<ConsensusGroup>(sim, cp,
                                             p.telemetry ? &recorder : nullptr);
    BindControlPlane(*group, svc);
  }

  FaultInjector injector(sim);
  if (p.telemetry) {
    injector.set_recorder(&recorder);
  }
  RandomScenarioParams sp = p.scenario;
  sp.nodes = p.nodes;
  sp.horizon = p.run_for;
  if (p.control_plane) {
    sp.leader_faults = p.leader_faults;
  }
  const ChaosSchedule schedule = RandomScenario(seed, sp);
  if (p.control_plane) {
    ConsensusGroup* g = group.get();
    ApplySchedule(sim, svc, schedule, injector,
                  [g]() -> FaultableDevice* {
                    return &g->LeaderDeviceOrFallback();
                  });
  } else {
    ApplySchedule(sim, svc, schedule, injector);
  }

  const SimTime end_of_run = SimTime::Zero() + p.run_for + p.settle;
  svc.StartRecovery(end_of_run);
  svc.StartTelemetry(end_of_run);
  if (group) {
    group->Start(end_of_run);
  }
  fleet.Run(svc, [](const FleetResult&) {});
  sim.Run();

  SeedOutcome out;
  out.seed = seed;
  out.dsl = schedule.ToDsl();
  for (const InjectedFault& f : injector.injected()) {
    char line[160];
    std::snprintf(line, sizeof(line), "%.3fs %s %s x%.3g",
                  f.when.ToSeconds(), f.component.c_str(), f.kind.c_str(),
                  f.magnitude);
    out.fault_timeline.push_back(line);
  }
  out.fire_digest = sim.fire_digest();
  out.goodput_per_sec = svc.slo().GoodputPerSec(p.run_for);
  out.crashes = svc.crashes();
  out.recoveries = svc.recoveries();
  out.keys_repaired = svc.keys_repaired();
  out.read_misses = svc.read_misses();
  out.retries = svc.slo().retries();
  out.acked_keys = svc.acked_keys();
  out.lost_acked = svc.lost_acked_writes();
  out.under_replicated = svc.under_replicated_keys();

  if (p.telemetry) {
    out.telemetry = true;
    const LivePlane& live = *svc.live();
    const CorrelationReport rep =
        CorrelateFaultTimeline(recorder.Events(), recorder.components());
    const std::vector<GraySpan> spans = live.expectation().GraySpans();
    out.scorecard = BuildScorecard(rep, spans, end_of_run, p.scorecard);
    out.gray_spans = static_cast<int>(spans.size());
    out.burn_raised = live.burn().raised_count();
    out.burn_cleared = live.burn().cleared_count();
    for (int i = 0; i < p.nodes; ++i) {
      out.max_stutter_score =
          std::max(out.max_stutter_score, live.expectation().MaxScore(i));
    }
    out.live_json = live.Json();
    out.slo_json = svc.slo().ReportJson(p.run_for);

    // Detection-quality invariants. Count consistency is unconditional;
    // crash coverage holds because every generated crash keeps the node
    // down >= 1.2s, past the 1s liveness timeout, so the heartbeat (or a
    // failed data-path request) must declare it.
    if (out.scorecard.detected + out.scorecard.missed !=
        out.scorecard.faults) {
      out.violations.push_back("scorecard count mismatch: detected " +
                               std::to_string(out.scorecard.detected) +
                               " + missed " +
                               std::to_string(out.scorecard.missed) +
                               " != faults " +
                               std::to_string(out.scorecard.faults));
    }
    for (const FaultRecord& f : rep.faults) {
      if (f.kind == "crash-restart" && !f.detected) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "crash on %s at %.3fs never detected", f.device.c_str(),
                      f.injected_at.ToSeconds());
        out.violations.push_back(buf);
      }
    }
  }

  if (p.control_plane) {
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
    for (std::string& v : group->CheckInvariants(p.unavailability_bound)) {
      out.violations.push_back(std::move(v));
    }
    // No split-brain ownership: at quiesce the serving map and weights
    // must equal the feed replica's applied state bit-for-bit — the
    // service holds no ownership fact the quorum never committed.
    const ControlState& feed = group->replica(0).state();
    if (svc.shard_map().OwnershipDigest() !=
        feed.map().OwnershipDigest()) {
      out.violations.push_back(
          "serving shard map diverged from feed replica applied state");
    }
    for (int i = 0; i < p.nodes; ++i) {
      if (svc.selector().WeightOf(i) != feed.weight(i)) {
        char buf[112];
        std::snprintf(buf, sizeof(buf),
                      "node%d serving weight %.6f != committed %.6f", i,
                      svc.selector().WeightOf(i), feed.weight(i));
        out.violations.push_back(buf);
      }
    }
    if (group->pending_proposals() != 0) {
      out.violations.push_back(
          std::to_string(group->pending_proposals()) +
          " control proposals never committed by end of run");
    }
  }

  if (out.lost_acked > 0) {
    out.violations.push_back("lost_acked_writes=" +
                             std::to_string(out.lost_acked));
  }
  if (out.under_replicated > 0) {
    out.violations.push_back("under_replicated_keys=" +
                             std::to_string(out.under_replicated));
  }
  for (int i = 0; i < p.nodes; ++i) {
    const std::string name = "node" + std::to_string(i);
    const PerfState st = svc.registry().StateOf(name);
    if (svc.node(i)->has_failed()) {
      out.violations.push_back(name + " still down at end of run");
      continue;
    }
    if (st == PerfState::kFailed) {
      out.violations.push_back(name + " stuck kFailed though the device is up");
    }
    const bool ejected = svc.shard_map().IsEjected(i);
    if (ejected && st != PerfState::kStuttering) {
      out.violations.push_back(name + " ejected though state is " +
                               PerfStateName(st));
    }
    if (st == PerfState::kHealthy && !ejected &&
        std::fabs(svc.selector().WeightOf(i) - 1.0) > 1e-9) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s healthy but weight %.4f != 1.0",
                    name.c_str(), svc.selector().WeightOf(i));
      out.violations.push_back(buf);
    }
  }
  out.ok = out.violations.empty();
  return out;
}

CampaignResult RunCampaign(const CampaignParams& p) {
  SweepSpec spec;
  spec.name = p.name;
  spec.seeds.clear();
  for (int i = 0; i < p.seeds; ++i) {
    spec.seeds.push_back(p.first_seed + static_cast<uint64_t>(i));
  }

  CampaignResult res;
  res.params = p;
  res.outcomes.resize(static_cast<size_t>(p.seeds));

  SweepRunner runner(p.threads);
  runner.Run(spec, [&p, &res](const CellPoint& pt) {
    SeedOutcome o = RunChaosSeed(p, pt.seed);
    CellResult cell;
    cell.point = pt;
    cell.value = o.goodput_per_sec;
    cell.fire_digest = o.fire_digest;
    // Cells write distinct, preallocated slots addressed by grid index —
    // the same discipline the sweep runner itself uses.
    res.outcomes[pt.index] = std::move(o);
    return cell;
  });

  for (const SeedOutcome& o : res.outcomes) {
    if (!o.ok) {
      ++res.violations;
    }
    if (o.telemetry) {
      res.scorecard.Merge(o.scorecard);
    }
  }
  return res;
}

int CampaignResult::ExemplarIndex() const {
  int first_violating = -1;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].telemetry) {
      return -1;
    }
    if (outcomes[i].gray_spans > 0) {
      return static_cast<int>(i);
    }
    if (first_violating < 0 && !outcomes[i].ok) {
      first_violating = static_cast<int>(i);
    }
  }
  if (first_violating >= 0) {
    return first_violating;
  }
  return outcomes.empty() ? -1 : 0;
}

std::string CampaignResult::UnifiedBundleJson() const {
  std::vector<ReportSection> sections;
  char buf[256];

  int total_faults = 0;
  std::string violating = "[";
  std::string seed_rows = "[\n";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const SeedOutcome& o = outcomes[i];
    total_faults += o.scorecard.faults;
    if (!o.ok) {
      if (violating.size() > 1) {
        violating += ", ";
      }
      violating += std::to_string(o.seed);
    }
    std::snprintf(buf, sizeof(buf),
                  "%s  {\"seed\": %llu, \"ok\": %s, "
                  "\"goodput_per_sec\": %.3f, \"gray_spans\": %d, "
                  "\"burn_raised\": %d, \"burn_cleared\": %d, "
                  "\"max_stutter_score\": %.4f, \"scorecard\": ",
                  i == 0 ? "" : ",\n", static_cast<unsigned long long>(o.seed),
                  o.ok ? "true" : "false", o.goodput_per_sec, o.gray_spans,
                  o.burn_raised, o.burn_cleared, o.max_stutter_score);
    seed_rows += buf;
    seed_rows += o.scorecard.ToJson();
    seed_rows += "}";
  }
  violating += "]";
  seed_rows += "\n]";

  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"%s\", \"nodes\": %d, \"seeds\": %d, "
                "\"first_seed\": %llu, \"violations\": %d, \"faults\": %d, "
                "\"violating_seeds\": ",
                params.name.c_str(), params.nodes, params.seeds,
                static_cast<unsigned long long>(params.first_seed),
                violations, total_faults);
  std::string campaign = buf;
  campaign += violating + "}";
  sections.push_back({"campaign", campaign});
  sections.push_back({"scorecard", scorecard.ToJson()});
  sections.push_back({"seeds", seed_rows});

  const int ex = ExemplarIndex();
  if (ex >= 0) {
    const SeedOutcome& o = outcomes[static_cast<size_t>(ex)];
    sections.push_back(
        {"exemplar_seed", std::to_string(o.seed)});
    sections.push_back({"exemplar_live", o.live_json});
    sections.push_back({"slo", o.slo_json});
  }
  return BundleJson(sections);
}

bool CampaignResult::WriteBundle(const std::string& dir) const {
  const std::string bundle = UnifiedBundleJson();
  const std::string base = dir + "/" + params.name;
  bool ok = WriteTextFile(base + "_bundle.json", bundle);
  ok = WriteTextFile(base + "_report.html",
                     HtmlReport("Chaos campaign: " + params.name, bundle)) &&
       ok;
  return ok;
}

std::string CampaignResult::ReportJson() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"campaign\": \"%s\", \"nodes\": %d, \"seeds\": %d, "
                "\"first_seed\": %llu, \"violating_seeds\": %d,\n"
                " \"results\": [\n",
                params.name.c_str(), params.nodes, params.seeds,
                static_cast<unsigned long long>(params.first_seed),
                violations);
  out += buf;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const SeedOutcome& o = outcomes[i];
    std::snprintf(
        buf, sizeof(buf),
        "  {\"seed\": %llu, \"ok\": %s, \"digest\": \"%016llx\", "
        "\"goodput_per_sec\": %.3f, \"crashes\": %d, \"recoveries\": %d, "
        "\"keys_repaired\": %lld, \"read_misses\": %lld, \"retries\": %lld, "
        "\"acked_keys\": %lld, \"lost_acked\": %lld, "
        "\"under_replicated\": %lld",
        static_cast<unsigned long long>(o.seed), o.ok ? "true" : "false",
        static_cast<unsigned long long>(o.fire_digest), o.goodput_per_sec,
        o.crashes, o.recoveries, static_cast<long long>(o.keys_repaired),
        static_cast<long long>(o.read_misses),
        static_cast<long long>(o.retries),
        static_cast<long long>(o.acked_keys),
        static_cast<long long>(o.lost_acked),
        static_cast<long long>(o.under_replicated));
    out += buf;
    if (o.control_plane) {
      char cbuf[320];
      std::snprintf(
          cbuf, sizeof(cbuf),
          ", \"elections\": %d, \"elections_won\": %d, "
          "\"false_failovers\": %d, \"entries_committed\": %lld, "
          "\"snapshots\": %d, \"reconfigs\": %d, "
          "\"reconfig_mean_ms\": %.3f, \"reconfig_max_ms\": %.3f, "
          "\"leaderless_s\": %.3f, \"max_leaderless_s\": %.3f",
          o.elections, o.elections_won, o.false_failovers,
          static_cast<long long>(o.entries_committed), o.snapshots,
          o.reconfigs, o.reconfig_mean_ms, o.reconfig_max_ms, o.leaderless_s,
          o.max_leaderless_s);
      out += cbuf;
    }
    if (!o.ok) {
      out += ", \"violations\": [";
      for (size_t v = 0; v < o.violations.size(); ++v) {
        if (v > 0) {
          out += ", ";
        }
        out += "\"" + JsonEscape(o.violations[v]) + "\"";
      }
      out += "], \"dsl\": \"" + JsonEscape(o.dsl) + "\"";
      out += ", \"fault_timeline\": [";
      for (size_t f = 0; f < o.fault_timeline.size(); ++f) {
        if (f > 0) {
          out += ", ";
        }
        out += "\"" + JsonEscape(o.fault_timeline[f]) + "\"";
      }
      out += "]";
    }
    out += i + 1 < outcomes.size() ? "},\n" : "}\n";
  }
  out += " ]}\n";
  return out;
}

}  // namespace fst

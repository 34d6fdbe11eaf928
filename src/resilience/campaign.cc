#include "src/resilience/campaign.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/cluster/client.h"
#include "src/core/policy.h"
#include "src/devices/disk.h"
#include "src/devices/network.h"
#include "src/devices/node.h"
#include "src/faults/fault.h"
#include "src/harness/sweep.h"
#include "src/obs/correlator.h"
#include "src/obs/export.h"
#include "src/obs/recorder.h"

namespace fst {

const char* ResilienceScenarioName(ResilienceScenario s) {
  switch (s) {
    case ResilienceScenario::kClean:
      return "clean";
    case ResilienceScenario::kGray:
      return "gray";
    case ResilienceScenario::kCorrelated:
      return "correlated";
    case ResilienceScenario::kRetryStorm:
      return "retrystorm";
  }
  return "?";
}

const char* ResiliencePatternName(ResiliencePattern p) {
  switch (p) {
    case ResiliencePattern::kNone:
      return "none";
    case ResiliencePattern::kBudget:
      return "budget";
    case ResiliencePattern::kRejuvenation:
      return "rejuvenation";
    case ResiliencePattern::kEviction:
      return "eviction";
    case ResiliencePattern::kNmr:
      return "nmr";
  }
  return "?";
}

ResilienceCellOutcome RunResilienceCell(const ResilienceCampaignParams& p,
                                        ResilienceScenario scenario,
                                        ResiliencePattern pattern,
                                        uint64_t seed) {
  Simulator sim(seed);

  // The schedule draws only from its own seed, never the simulator RNG, so
  // it can be generated up front — the fleet needs its surge windows before
  // it forks the first arrival stream.
  RandomScenarioParams sp = p.scenario;
  sp.nodes = p.nodes;
  sp.horizon = p.run_for;
  sp.stutter_faults = 0;
  sp.crash_faults = 0;
  sp.gray_faults = 0;
  sp.leader_faults = 0;
  sp.correlated_faults = 0;
  sp.gray_events = 0;
  sp.retry_storms = 0;
  switch (scenario) {
    case ResilienceScenario::kClean:
      break;
    case ResilienceScenario::kGray:
      sp.gray_events = 2;
      break;
    case ResilienceScenario::kCorrelated:
      sp.correlated_faults = 2;
      // Crash-mode domains with R = 2 can legitimately lose acked writes;
      // the durability invariant stays meaningful only with slow-mode fate.
      sp.correlated_crash_prob = 0.0;
      break;
    case ResilienceScenario::kRetryStorm:
      sp.retry_storms = 1;
      break;
  }
  const ChaosSchedule schedule = RandomScenario(seed, sp);
  const std::vector<SurgeWindow> surges = SurgeWindows(schedule);

  FleetParams fleet_params;
  fleet_params.arrivals_per_sec = p.arrivals_per_sec;
  fleet_params.run_for = p.run_for;
  fleet_params.read_fraction = p.read_fraction;
  fleet_params.key_space = p.key_space;
  for (const SurgeWindow& w : surges) {
    fleet_params.surges.push_back({w.at, w.duration, w.factor});
  }
  ClientFleet fleet(sim, fleet_params);

  ClusterParams cluster;
  cluster.nodes = p.nodes;
  cluster.shard.replication = p.replication;
  cluster.write_quorum = p.write_quorum;
  cluster.admission.max_outstanding_per_node = p.max_outstanding_per_node;
  cluster.retry.enabled = true;
  cluster.retry.max_attempts = p.retry_max_attempts;
  // No per-op deadline: the deadline guard would cap exactly the retry
  // amplification the storm cells exist to measure. The token bucket is
  // the pattern under ablation, and the only brake left standing.
  cluster.retry.deadline = Duration::Zero();
  cluster.retry.budget = pattern != ResiliencePattern::kNone;
  cluster.recovery.enabled = true;
  cluster.live = p.live;
  cluster.live.enabled = true;
  if (pattern == ResiliencePattern::kNmr) {
    cluster.nmr = p.nmr;
    cluster.nmr.enabled = true;
  }
  // Control-only: the correlator below reads faults, transitions and
  // policy actions, never request spans.
  EventRecorder recorder;
  recorder.set_request_spans(false);
  KvService svc(sim, cluster, std::make_unique<ProportionalSharePolicy>(),
                &recorder);

  std::unique_ptr<ConsensusGroup> group;
  if (p.control_plane) {
    ConsensusParams cp = p.consensus;
    cp.data_nodes = p.nodes;
    cp.shard = cluster.shard;
    group = std::make_unique<ConsensusGroup>(sim, cp, &recorder);
    BindControlPlane(*group, svc);
  }

  FaultInjector injector(sim);
  injector.set_recorder(&recorder);
  ApplySchedule(sim, svc, schedule, injector);

  RejuvenationParams rj = p.rejuvenation;
  rj.enabled = pattern == ResiliencePattern::kRejuvenation;
  EvictionParams ev = p.eviction;
  ev.enabled = pattern == ResiliencePattern::kEviction;
  ResilienceEngine engine(sim, svc, injector, rj, ev);

  ResilienceCellOutcome out;
  out.scenario = static_cast<int>(scenario);
  out.pattern = static_cast<int>(pattern);
  out.seed = seed;
  out.dsl = schedule.ToDsl();

  // Retry-storm verdict sampling: goodput rate in a window just before the
  // trigger vs one starting a grace period after it clears. Metastable
  // collapse is exactly "the trigger is gone but the rate never comes
  // back" — post under half of pre.
  int64_t pre_a = 0, pre_b = 0, post_a = 0, post_b = 0;
  double pre_len_s = 0.0, post_len_s = 0.0;
  if (!surges.empty()) {
    out.storm = true;
    const SurgeWindow& w = surges.front();
    const double at_s = w.at.ToSeconds();
    const double clear_s = at_s + w.duration.ToSeconds();
    const double run_s = p.run_for.ToSeconds();
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

  const SimTime end_of_run = SimTime::Zero() + p.run_for + p.settle;
  svc.StartRecovery(end_of_run);
  svc.StartTelemetry(end_of_run);
  engine.Start(SimTime::Zero() + p.run_for);
  if (group) {
    group->Start(end_of_run);
  }
  fleet.Run(svc, [](const FleetResult&) {});
  sim.Run();

  out.fire_digest = sim.fire_digest();
  out.goodput_per_sec = svc.slo().GoodputPerSec(p.run_for);
  out.retries = svc.slo().retries();
  const SloSnapshot snap = svc.SloWithRetry();
  out.denied_budget = snap.retry_denied_budget;
  out.retry_tokens = snap.retry_tokens;
  out.crashes = svc.crashes();
  out.recoveries = svc.recoveries();
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

  const LivePlane& live = *svc.live();
  const CorrelationReport rep =
      CorrelateFaultTimeline(recorder.Events(), recorder.components());
  const std::vector<GraySpan> spans = live.expectation().GraySpans();
  out.scorecard = BuildScorecard(rep, spans, end_of_run, p.scorecard);
  for (const GraySpan& s : spans) {
    out.gray_exposure_s += (s.end - s.start).ToSeconds();
  }

  // Detection-quality invariants, as in the chaos campaign. Every crash in
  // these cells — including the rejuvenation pattern's proactive restarts,
  // which ride the same injector lifecycle — keeps its node down past the
  // liveness timeout, so an undetected crash is a detector bug.
  if (out.scorecard.detected + out.scorecard.missed != out.scorecard.faults) {
    out.violations.push_back(
        "scorecard count mismatch: detected " +
        std::to_string(out.scorecard.detected) + " + missed " +
        std::to_string(out.scorecard.missed) + " != faults " +
        std::to_string(out.scorecard.faults));
  }
  for (const FaultRecord& f : rep.faults) {
    if (f.kind == "crash-restart" && !f.detected) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "crash on %s at %.3fs never detected",
                    f.device.c_str(), f.injected_at.ToSeconds());
      out.violations.push_back(buf);
    }
  }

  if (p.control_plane) {
    for (std::string& v : group->CheckInvariants(Duration::Seconds(3.0))) {
      out.violations.push_back(std::move(v));
    }
    const ControlState& feed = group->replica(0).state();
    if (svc.shard_map().OwnershipDigest() != feed.map().OwnershipDigest()) {
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

  // The robustness invariants every cell must satisfy regardless of
  // pattern: durability, repair, convergence.
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

namespace {

// One checkpointed-workload run from a cold simulator, so makespans are
// comparable and digests depend on nothing but the committed phase log.
CheckpointStats RunCheckpointOnce(const ResilienceCampaignParams& p,
                                  int workload, uint64_t seed,
                                  const CheckpointParams& cp) {
  Simulator sim(seed);
  if (workload == 0) {
    DiskParams dp;
    dp.flat_bandwidth_mbps = 10.0;
    dp.block_bytes = 65536;
    dp.capacity_blocks = 1 << 20;
    std::vector<std::unique_ptr<Disk>> disks;
    std::vector<std::unique_ptr<Node>> nodes;
    std::vector<Disk*> disk_ptrs;
    std::vector<Node*> node_ptrs;
    for (int i = 0; i < p.nodes; ++i) {
      disks.push_back(std::make_unique<Disk>(
          sim, "disk" + std::to_string(i), dp));
      nodes.push_back(std::make_unique<Node>(
          sim, "node" + std::to_string(i), NodeParams{}));
      disk_ptrs.push_back(disks.back().get());
      node_ptrs.push_back(nodes.back().get());
    }
    return RunCheckpointedSort(sim, p.sort, cp, disk_ptrs, node_ptrs);
  }
  SwitchParams np;
  np.ports = p.nodes;
  Switch net(sim, np);
  return RunCheckpointedTranspose(sim, p.transpose, cp, net, p.nodes);
}

}  // namespace

CheckpointCellOutcome RunCheckpointCell(const ResilienceCampaignParams& p,
                                        int workload, uint64_t seed) {
  CheckpointCellOutcome out;
  out.workload = workload;
  out.seed = seed;
  const char* wname = workload == 0 ? "sort" : "transpose";
  char buf[160];

  CheckpointParams base = p.checkpoint;
  base.crash_at_boundary = -1;

  // Uncheckpointed baseline: the digest every other run must reproduce.
  CheckpointParams plain = base;
  plain.enabled = false;
  const CheckpointStats sp = RunCheckpointOnce(p, workload, seed, plain);
  out.digest_plain = sp.digest;
  out.makespan_plain_s = sp.makespan.ToSeconds();
  if (!sp.ok) {
    std::snprintf(buf, sizeof(buf), "%s seed %llu: baseline run failed",
                  wname, static_cast<unsigned long long>(seed));
    out.violations.push_back(buf);
  }

  // Checkpointing on, no crash: pays the overhead, must change nothing.
  CheckpointParams on = base;
  on.enabled = true;
  const CheckpointStats so = RunCheckpointOnce(p, workload, seed, on);
  out.digest_ckpt = so.digest;
  out.makespan_ckpt_s = so.makespan.ToSeconds();
  out.overhead_pct =
      out.makespan_plain_s > 0.0
          ? 100.0 * (out.makespan_ckpt_s - out.makespan_plain_s) /
                out.makespan_plain_s
          : 0.0;
  if (!so.ok || so.digest != sp.digest) {
    std::snprintf(buf, sizeof(buf),
                  "%s seed %llu: checkpointed digest %016llx != plain %016llx",
                  wname, static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(so.digest),
                  static_cast<unsigned long long>(sp.digest));
    out.violations.push_back(buf);
  }

  // Crash at EVERY boundary, restore, replay: each run must land on the
  // uncrashed digest bit-for-bit — rollback is transparent or it is wrong.
  const int phases = std::max(1, base.phases);
  double crashed_total = 0.0;
  for (int k = 0; k < phases; ++k) {
    CheckpointParams c = base;
    c.enabled = true;
    c.crash_at_boundary = k;
    const CheckpointStats sc = RunCheckpointOnce(p, workload, seed, c);
    crashed_total += sc.makespan.ToSeconds();
    if (!sc.ok || sc.digest != sp.digest || sc.crashes != 1) {
      std::snprintf(
          buf, sizeof(buf),
          "%s seed %llu boundary %d: replay digest %016llx != plain %016llx",
          wname, static_cast<unsigned long long>(seed), k,
          static_cast<unsigned long long>(sc.digest),
          static_cast<unsigned long long>(sp.digest));
      out.violations.push_back(buf);
    }
    ++out.boundaries_tested;
  }
  out.crashed_ckpt_s = crashed_total / phases;

  // The recovery-gain comparison: the same mid-run crash with no durable
  // checkpoint rolls all the way back to phase 0.
  CheckpointParams off = base;
  off.enabled = false;
  off.crash_at_boundary = phases / 2;
  const CheckpointStats sf = RunCheckpointOnce(p, workload, seed, off);
  out.crashed_plain_s = sf.makespan.ToSeconds();
  if (!sf.ok || sf.digest != sp.digest) {
    std::snprintf(buf, sizeof(buf),
                  "%s seed %llu: uncheckpointed crash replay digest "
                  "%016llx != plain %016llx",
                  wname, static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(sf.digest),
                  static_cast<unsigned long long>(sp.digest));
    out.violations.push_back(buf);
  }

  out.ok = out.violations.empty();
  return out;
}

size_t ResilienceCampaignResult::CellIndex(int scenario, int pattern,
                                           int seed_ordinal) const {
  return (static_cast<size_t>(scenario) * kResiliencePatterns +
          static_cast<size_t>(pattern)) *
             static_cast<size_t>(params.seeds) +
         static_cast<size_t>(seed_ordinal);
}

ResilienceCampaignResult RunResilienceCampaign(
    const ResilienceCampaignParams& p) {
  SweepSpec spec;
  spec.name = p.name;
  SweepAxis scen_axis;
  scen_axis.name = "scenario";
  SweepAxis pat_axis;
  pat_axis.name = "pattern";
  for (int s = 0; s < kResilienceScenarios; ++s) {
    scen_axis.values.push_back(static_cast<double>(s));
    scen_axis.labels.push_back(
        ResilienceScenarioName(static_cast<ResilienceScenario>(s)));
  }
  for (int q = 0; q < kResiliencePatterns; ++q) {
    pat_axis.values.push_back(static_cast<double>(q));
    pat_axis.labels.push_back(
        ResiliencePatternName(static_cast<ResiliencePattern>(q)));
  }
  spec.axes.push_back(std::move(scen_axis));
  spec.axes.push_back(std::move(pat_axis));
  spec.seeds.clear();
  for (int i = 0; i < p.seeds; ++i) {
    spec.seeds.push_back(p.first_seed + static_cast<uint64_t>(i));
  }

  ResilienceCampaignResult res;
  res.params = p;
  res.outcomes.resize(static_cast<size_t>(kResilienceScenarios) *
                      kResiliencePatterns * static_cast<size_t>(p.seeds));

  SweepRunner runner(p.threads);
  runner.Run(spec, [&p, &res](const CellPoint& pt) {
    const auto scenario =
        static_cast<ResilienceScenario>(static_cast<int>(pt.Value("scenario")));
    const auto pattern =
        static_cast<ResiliencePattern>(static_cast<int>(pt.Value("pattern")));
    ResilienceCellOutcome o = RunResilienceCell(p, scenario, pattern, pt.seed);
    CellResult cell;
    cell.point = pt;
    cell.value = o.goodput_per_sec;
    cell.fire_digest = o.fire_digest;
    // Distinct preallocated slots addressed by grid index — the sweep
    // runner's own determinism discipline.
    res.outcomes[pt.index] = std::move(o);
    return cell;
  });

  for (const ResilienceCellOutcome& o : res.outcomes) {
    if (!o.ok) {
      ++res.violations;
    }
  }

  // The checkpoint sub-grid runs serially: 2 workloads x checkpoint_seeds
  // cells, each internally (3 + phases) full runs.
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < p.checkpoint_seeds; ++i) {
      CheckpointCellOutcome o =
          RunCheckpointCell(p, w, p.first_seed + static_cast<uint64_t>(i));
      if (!o.ok) {
        ++res.violations;
      }
      res.checkpoints.push_back(std::move(o));
    }
  }
  return res;
}

std::string ResilienceCampaignResult::ScorecardJson() const {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"campaign\": \"%s\", \"nodes\": %d, \"seeds\": %d, "
                "\"first_seed\": %llu, \"violations\": %d,\n \"grid\": [\n",
                params.name.c_str(), params.nodes, params.seeds,
                static_cast<unsigned long long>(params.first_seed),
                violations);
  out += buf;

  // Per-(scenario, pattern) aggregates in grid order. "Goodput retained"
  // normalizes by the same pattern's clean-scenario mean, so it reads as
  // "what fraction of this pattern's fault-free service survived the
  // scenario class".
  std::vector<double> clean_mean(static_cast<size_t>(kResiliencePatterns),
                                 0.0);
  for (int q = 0; q < kResiliencePatterns; ++q) {
    double sum = 0.0;
    for (int i = 0; i < params.seeds; ++i) {
      sum += outcomes[CellIndex(0, q, i)].goodput_per_sec;
    }
    clean_mean[static_cast<size_t>(q)] =
        params.seeds > 0 ? sum / params.seeds : 0.0;
  }

  bool first = true;
  for (int s = 0; s < kResilienceScenarios; ++s) {
    for (int q = 0; q < kResiliencePatterns; ++q) {
      double goodput = 0.0, gray = 0.0, pre = 0.0, post = 0.0;
      int64_t denied = 0, retries = 0, nmr_reads = 0, nmr_acks = 0;
      int cell_violations = 0, storms = 0, collapsed = 0;
      int rejuvenations = 0, evictions = 0, restores = 0, crashes = 0;
      DetectorScorecard merged;
      for (int i = 0; i < params.seeds; ++i) {
        const ResilienceCellOutcome& o = outcomes[CellIndex(s, q, i)];
        goodput += o.goodput_per_sec;
        gray += o.gray_exposure_s;
        denied += o.denied_budget;
        retries += o.retries;
        nmr_reads += o.nmr_reads;
        nmr_acks += o.nmr_acks;
        rejuvenations += o.rejuvenations;
        evictions += o.evictions;
        restores += o.restores;
        crashes += o.crashes;
        if (!o.ok) {
          ++cell_violations;
        }
        if (o.storm) {
          ++storms;
          pre += o.pre_storm_rate;
          post += o.post_storm_rate;
          if (o.collapsed) {
            ++collapsed;
          }
        }
        merged.Merge(o.scorecard);
      }
      const double n = params.seeds > 0 ? params.seeds : 1;
      const double mean_goodput = goodput / n;
      const double base = clean_mean[static_cast<size_t>(q)];
      std::snprintf(
          buf, sizeof(buf),
          "%s  {\"scenario\": \"%s\", \"pattern\": \"%s\", "
          "\"goodput_per_sec\": %.3f, \"goodput_retained\": %.4f, "
          "\"gray_exposure_s\": %.3f, "
          "\"mttd_p50_ms\": %.3f, \"mttr_p50_ms\": %.3f, "
          "\"faults\": %d, \"detected\": %d, \"violations\": %d, "
          "\"retries\": %lld, \"denied_budget\": %lld, "
          "\"storms\": %d, \"collapsed\": %d, "
          "\"pre_storm_rate\": %.3f, \"post_storm_rate\": %.3f, "
          "\"rejuvenations\": %d, \"evictions\": %d, \"restores\": %d, "
          "\"crashes\": %d, \"nmr_reads\": %lld, \"nmr_acks\": %lld}",
          first ? "" : ",\n", ResilienceScenarioName(
                                 static_cast<ResilienceScenario>(s)),
          ResiliencePatternName(static_cast<ResiliencePattern>(q)),
          mean_goodput, base > 0.0 ? mean_goodput / base : 0.0, gray / n,
          merged.mttd_ms.P50(), merged.mttr_ms.P50(), merged.faults,
          merged.detected,
          cell_violations, static_cast<long long>(retries),
          static_cast<long long>(denied), storms, collapsed,
          storms > 0 ? pre / storms : 0.0, storms > 0 ? post / storms : 0.0,
          rejuvenations, evictions, restores, crashes,
          static_cast<long long>(nmr_reads), static_cast<long long>(nmr_acks));
      out += buf;
      first = false;
    }
  }
  out += "\n ],\n \"checkpoints\": [\n";
  for (size_t i = 0; i < checkpoints.size(); ++i) {
    const CheckpointCellOutcome& c = checkpoints[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s  {\"workload\": \"%s\", \"seed\": %llu, \"ok\": %s, "
        "\"digest\": \"%016llx\", \"makespan_plain_s\": %.6f, "
        "\"makespan_ckpt_s\": %.6f, \"overhead_pct\": %.3f, "
        "\"boundaries_tested\": %d, \"crashed_ckpt_s\": %.6f, "
        "\"crashed_plain_s\": %.6f}",
        i == 0 ? "" : ",\n", c.workload == 0 ? "sort" : "transpose",
        static_cast<unsigned long long>(c.seed), c.ok ? "true" : "false",
        static_cast<unsigned long long>(c.digest_plain), c.makespan_plain_s,
        c.makespan_ckpt_s, c.overhead_pct, c.boundaries_tested,
        c.crashed_ckpt_s, c.crashed_plain_s);
    out += buf;
  }
  out += "\n ]}\n";
  return out;
}

}  // namespace fst

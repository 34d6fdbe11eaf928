#include "src/resilience/campaign.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <utility>

#include "src/devices/disk.h"
#include "src/devices/network.h"
#include "src/devices/node.h"

namespace fst {

namespace {

constexpr const char* kScenarioNames[] = {"clean", "gray", "correlated",
                                          "retrystorm"};
constexpr const char* kPatternNames[] = {"none", "budget", "rejuvenation",
                                         "eviction", "nmr"};
static_assert(std::size(kScenarioNames) == kResilienceScenarios);
static_assert(std::size(kPatternNames) == kResiliencePatterns);

}  // namespace

const char* ResilienceScenarioName(ResilienceScenario s) {
  return kScenarioNames[static_cast<int>(s)];
}

const char* ResiliencePatternName(ResiliencePattern p) {
  return kPatternNames[static_cast<int>(p)];
}

CellSpec ResilienceCellSpec(const ResilienceCampaignParams& p,
                            ResilienceScenario scenario,
                            ResiliencePattern pattern, uint64_t seed) {
  CellSpec spec;
  spec.seed = seed;
  spec.cluster.nodes = p.nodes;
  spec.cluster.shard.replication = p.replication;
  spec.cluster.write_quorum = p.write_quorum;
  spec.cluster.admission.max_outstanding_per_node = p.max_outstanding_per_node;
  spec.cluster.retry.enabled = true;
  spec.cluster.retry.max_attempts = p.retry_max_attempts;
  // No per-op deadline: the deadline guard would cap exactly the retry
  // amplification the storm cells exist to measure. The token bucket is
  // the pattern under ablation, and the only brake left standing.
  spec.cluster.retry.deadline = Duration::Zero();
  spec.cluster.retry.budget = pattern != ResiliencePattern::kNone;
  spec.cluster.recovery.enabled = true;
  spec.cluster.live = p.live;
  spec.cluster.live.enabled = true;
  if (pattern == ResiliencePattern::kNmr) {
    spec.cluster.nmr = p.nmr;
    spec.cluster.nmr.enabled = true;
  }
  spec.fleet.arrivals_per_sec = p.arrivals_per_sec;
  spec.fleet.run_for = p.run_for;
  spec.fleet.read_fraction = p.read_fraction;
  spec.fleet.key_space = p.key_space;
  if (p.control_plane) {
    spec.consensus = p.consensus;
  }

  RandomScenarioParams sp = p.scenario;
  sp.nodes = p.nodes;
  sp.horizon = p.run_for;
  sp.stutter_faults = sp.crash_faults = sp.gray_faults = sp.leader_faults = 0;
  sp.gray_events = scenario == ResilienceScenario::kGray ? 2 : 0;
  sp.correlated_faults = scenario == ResilienceScenario::kCorrelated ? 2 : 0;
  // Crash-mode domains with R = 2 can legitimately lose acked writes; the
  // durability invariant stays meaningful only with slow-mode fate.
  sp.correlated_crash_prob = 0.0;
  sp.retry_storms = scenario == ResilienceScenario::kRetryStorm ? 1 : 0;
  spec.schedule = RandomScenario(seed, sp);
  spec.settle = p.settle;
  spec.scorecard = p.scorecard;
  spec.rejuvenation = p.rejuvenation;
  spec.rejuvenation.enabled = pattern == ResiliencePattern::kRejuvenation;
  spec.eviction = p.eviction;
  spec.eviction.enabled = pattern == ResiliencePattern::kEviction;
  return spec;
}

ResilienceCellOutcome RunResilienceCell(const ResilienceCampaignParams& p,
                                        ResilienceScenario scenario,
                                        ResiliencePattern pattern,
                                        uint64_t seed) {
  return {RunCell(ResilienceCellSpec(p, scenario, pattern, seed)),
          static_cast<int>(scenario), static_cast<int>(pattern)};
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
  ResilienceCampaignResult res;
  res.params = p;
  std::vector<CellSpec> specs;
  for (int s = 0; s < kResilienceScenarios; ++s) {
    for (int q = 0; q < kResiliencePatterns; ++q) {
      for (int i = 0; i < p.seeds; ++i) {
        specs.push_back(ResilienceCellSpec(
            p, static_cast<ResilienceScenario>(s),
            static_cast<ResiliencePattern>(q),
            p.first_seed + static_cast<uint64_t>(i)));
        res.outcomes.emplace_back();
        res.outcomes.back().scenario = s;
        res.outcomes.back().pattern = q;
      }
    }
  }
  std::vector<CellOutcome> cells = RunCells(specs, p.threads);
  for (size_t i = 0; i < cells.size(); ++i) {
    static_cast<CellOutcome&>(res.outcomes[i]) = std::move(cells[i]);
    if (!res.outcomes[i].ok) {
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

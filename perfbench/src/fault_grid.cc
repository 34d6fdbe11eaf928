// fault_grid: the resilience ablation grid through RunResilienceCell.
//
// 4 scenario classes x 5 patterns x 8 seeds (the resilience campaign's own
// grid, first seed = --seed), control plane on, cells run serially. One
// pass is one seed's 20 cells; passes cycle through the 8 seeds until the
// time budget is spent, and always cover the whole grid once, so the
// per-layer counts and the metastable verdict are taken over the same
// 160 cells on every run. A repeated cell must reproduce its first run.
//
// Each cell builds its Simulator, KvService and fleet inside the one
// public call, so the cell time includes them. setup_s is measured by a
// probe: the benchmark builds the same Simulator + ClientFleet +
// EventRecorder + KvService + ConsensusGroup, with the cell's parameters,
// outside the call and times the constructors.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/cluster/client.h"
#include "src/cluster/cluster.h"
#include "src/core/policy.h"
#include "src/obs/recorder.h"
#include "src/resilience/campaign.h"
#include "src/simcore/simulator.h"

namespace perfbench {
namespace {

constexpr int kGridSeeds = 8;
constexpr int kScorecardRepeats = 5;

// Constructor time of one cell's serving stack, mirroring the parameters
// RunResilienceCell derives from the campaign params (before any chaos
// schedule or policy engine is attached).
int64_t ProbeSetupNs(const fst::ResilienceCampaignParams& p, uint64_t seed) {
  int64_t built = 0;
  const int64_t t0 = NowNs();
  {
    fst::Simulator sim(seed);
    fst::FleetParams fp;
    fp.arrivals_per_sec = p.arrivals_per_sec;
    fp.run_for = p.run_for;
    fp.read_fraction = p.read_fraction;
    fp.key_space = p.key_space;
    fst::ClientFleet fleet(sim, fp);
    fst::ClusterParams cluster;
    cluster.nodes = p.nodes;
    cluster.shard.replication = p.replication;
    cluster.write_quorum = p.write_quorum;
    cluster.admission.max_outstanding_per_node = p.max_outstanding_per_node;
    cluster.retry.enabled = true;
    cluster.retry.max_attempts = p.retry_max_attempts;
    cluster.retry.deadline = fst::Duration::Zero();
    cluster.recovery.enabled = true;
    cluster.live = p.live;
    cluster.live.enabled = true;
    fst::EventRecorder recorder;
    fst::KvService svc(sim, cluster,
                       std::make_unique<fst::ProportionalSharePolicy>(),
                       &recorder);
    fst::ConsensusParams cp = p.consensus;
    cp.data_nodes = p.nodes;
    cp.shard = cluster.shard;
    fst::ConsensusGroup group(sim, cp, &recorder);
    built = NowNs();
  }
  return built - t0;
}

std::string CellJson(int64_t pass, const fst::ResilienceCellOutcome& o,
                     double ms) {
  JsonObject j;
  j.Int("pass", pass)
      .Str("scenario", fst::ResilienceScenarioName(
                           static_cast<fst::ResilienceScenario>(o.scenario)))
      .Str("pattern", fst::ResiliencePatternName(
                          static_cast<fst::ResiliencePattern>(o.pattern)))
      .Int("seed", static_cast<int64_t>(o.seed))
      .Num("ms", ms)
      .Bool("ok", o.ok)
      .Int("violations", static_cast<int64_t>(o.violations.size()))
      .Num("goodput_per_sec", o.goodput_per_sec)
      .Int("retries", o.retries)
      .Int("denied_budget", o.denied_budget)
      .Num("retry_tokens", o.retry_tokens)
      .Num("gray_exposure_s", o.gray_exposure_s)
      .Int("faults", o.scorecard.faults)
      .Int("detected", o.scorecard.detected)
      .Int("missed", o.scorecard.missed)
      .Int("crashes", o.crashes)
      .Int("recoveries", o.recoveries)
      .Int("lost_acked", o.lost_acked)
      .Int("under_replicated", o.under_replicated)
      .Int("rejuvenations", o.rejuvenations)
      .Int("evictions", o.evictions)
      .Int("restores", o.restores)
      .Int("nmr_reads", o.nmr_reads)
      .Int("nmr_acks", o.nmr_acks)
      .Bool("storm", o.storm)
      .Num("pre_storm_rate", o.pre_storm_rate)
      .Num("post_storm_rate", o.post_storm_rate)
      .Bool("collapsed", o.collapsed);
  return j.str();
}

}  // namespace

RunRecord RunFaultGrid(const Options& opt, SpanLog& spans) {
  fst::ResilienceCampaignParams params;  // the campaign's defaults
  params.first_seed = opt.seed;
  params.seeds = kGridSeeds;
  params.control_plane = true;
  params.threads = 1;

  fst::ResilienceCampaignResult grid;
  grid.params = params;
  grid.outcomes.resize(static_cast<size_t>(fst::kResilienceScenarios) *
                       fst::kResiliencePatterns * kGridSeeds);

  RunRecord rec;
  std::vector<std::string> cells;
  const int64_t start = WallNs();
  const auto budget_ns = static_cast<int64_t>(opt.seconds * 1e9);
  const double run_for_s = params.run_for.ToSeconds();
  for (int64_t pass = 0;; ++pass) {
    const int ordinal = static_cast<int>(pass % kGridSeeds);
    const uint64_t seed = params.first_seed + static_cast<uint64_t>(ordinal);
    const int64_t pass_id = spans.NextId();
    const int64_t p0 = NowNs();
    Pass p;
    p.key = ordinal;
    for (int s = 0; s < fst::kResilienceScenarios; ++s) {
      for (int q = 0; q < fst::kResiliencePatterns; ++q) {
        const int64_t probe_ns = ProbeSetupNs(params, seed);
        p.setup_s += NsToS(probe_ns);
        const auto scenario = static_cast<fst::ResilienceScenario>(s);
        const auto pattern = static_cast<fst::ResiliencePattern>(q);
        const int64_t c0 = NowNs();
        fst::ResilienceCellOutcome o =
            fst::RunResilienceCell(params, scenario, pattern, seed);
        const int64_t c1 = NowNs();
        p.host_s += NsToS(c1 - c0);
        ++p.cells;
        // RunResilienceCell reports goodput only: in-deadline acks over the
        // serving window, so the count is goodput_per_sec * run_for.
        p.sim_ops += std::llround(o.goodput_per_sec * run_for_s);
        rec.cell_ms.push_back(NsToMs(c1 - c0));
        rec.cell_keys.push_back(
            static_cast<int64_t>(grid.CellIndex(s, q, ordinal)));
        if (spans.enabled()) {
          spans.Exact("fault_grid.setup_probe", pass_id, c0 - probe_ns, c0);
          spans.Exact(std::string("resilience.cell.") +
                          fst::ResilienceScenarioName(scenario) + "." +
                          fst::ResiliencePatternName(pattern),
                      pass_id, c0, c1);
        }
        cells.push_back(CellJson(pass, o, NsToMs(c1 - c0)));
        if (pass < kGridSeeds) {
          grid.outcomes[grid.CellIndex(s, q, ordinal)] = std::move(o);
        }
      }
    }
    if (spans.enabled()) {
      Span ps;
      ps.id = pass_id;
      ps.name = "fault_grid.pass";
      ps.start_ns = p0;
      ps.end_ns = NowNs();
      ps.busy_ns = ps.end_ns - ps.start_ns;
      spans.Add(ps);
    }
    rec.passes.push_back(p);
    if (pass + 1 == kGridSeeds) {
      rec.peak_rss_mb = PeakRssMb();
    }
    if (pass + 1 >= kGridSeeds && WallNs() - start >= budget_ns) {
      break;
    }
  }

  // The campaign's scorecard export over the first full grid, timed apart
  // from serving.
  for (const fst::ResilienceCellOutcome& o : grid.outcomes) {
    grid.violations += o.ok ? 0 : 1;
  }
  std::vector<double> export_s;
  size_t scorecard_bytes = 0;
  for (int i = 0; i < kScorecardRepeats; ++i) {
    const int64_t e0 = NowNs();
    scorecard_bytes = grid.ScorecardJson().size();
    const int64_t e1 = NowNs();
    export_s.push_back(NsToS(e1 - e0));
    if (spans.enabled()) {
      spans.Exact("resilience.ScorecardJson", 0, e0, e1);
    }
  }
  std::nth_element(export_s.begin(), export_s.begin() + export_s.size() / 2,
                   export_s.end());
  rec.layers.Num("resilience.scorecard_s", export_s[export_s.size() / 2]);
  rec.outputs.Int("grid_seeds", kGridSeeds)
      .Int("scorecard_violations", grid.violations)
      .Int("scorecard_bytes", static_cast<int64_t>(scorecard_bytes))
      .Raw("cells", JsonArray(cells));
  return rec;
}

}  // namespace perfbench

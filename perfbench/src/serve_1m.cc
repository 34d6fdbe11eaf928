// serve_1m: the 1M-client serving cell (examples/fleet_scale `cell`).
//
// 1,000,000 clients x 100 nodes, open-loop Poisson at 50k ops/s for 60
// simulated seconds, reads only, Zipf 1.1 over 2^20 keys, node 0 slowed 2x,
// proportional-share routing, telemetry off. Every pass repeats the same
// seeded cell, so every pass must reproduce the first one's outcomes.
//
// Untraced cells run the ColumnarFleet exactly as fleet_scale does, with
// the event loop timed in segments of kSegmentEvents events (RunSteps until
// the queue drains fires the same events as Run). Every repeat of the cell
// fires the same events, so segment i is the same work on every pass and
// run.py can take each segment's least disturbed repeat.
//
// The traced run alternates untraced cells with traced ones, in which the
// benchmark drives the same cell itself through public calls so each call
// class can be timed from here:
//   ArrivalGenerator::FillWindow        -> fleet.fill
//   Simulator::RunUntil(next arrival)   -> simcore.run
//   KvService::GetTagged / PutTagged    -> cluster.issue
//   KvService::DrainCompletions         -> cluster.drain
// The traced loop replays ColumnarFleet's schedule: at each arrival a
// one-shot marker event, scheduled at the point the fleet's BatchSequencer
// schedules its own, stops the event loop; the arrival is then issued
// outside it, so every simulated event keeps its (time, order) position.
// Its outcomes are cross-checked against the untraced cells by run.py.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/arrivals.h"
#include "src/cluster/fleet/fleet.h"
#include "src/core/policy.h"
#include "src/devices/modulators.h"
#include "src/simcore/simulator.h"
#include "src/simcore/stats.h"

namespace perfbench {
namespace {

constexpr uint32_t kClients = 1000000;
constexpr int kNodes = 100;
constexpr size_t kWindow = 4096;  // ColumnarFleetParams::window default
const fst::Duration kDrainEvery = fst::Duration::Millis(10);
constexpr uint64_t kSegmentEvents = 1 << 20;  // ~17 segments per cell
constexpr int kSetupProbes = 4;

fst::ClusterParams CellParams() {
  fst::ClusterParams cp;
  cp.nodes = kNodes;
  cp.shard.replication = 3;
  cp.node.cpu_rate = 1e6;
  // ~70% loaded: 100 nodes x 1k ops/s capacity vs 50k/s offered.
  cp.read_work = 1000.0;
  cp.admission.max_outstanding_per_node = 24;
  cp.slo_deadline = fst::Duration::Millis(300);
  cp.route = fst::RouteMode::kQueueWeighted;
  return cp;
}

fst::FleetParams FleetShape() {
  fst::FleetParams fp;
  fp.arrivals_per_sec = 50000.0;
  fp.run_for = fst::Duration::Seconds(60.0);
  fp.read_fraction = 1.0;
  fp.zipf_s = 1.1;
  fp.key_space = 1 << 20;
  return fp;
}

// Simulator + service, built in the order fleet_scale builds them; the
// fleet (or the traced loop's generator) is constructed after it.
struct Stack {
  explicit Stack(uint64_t seed)
      : sim(seed),
        svc(sim, CellParams(),
            std::make_unique<fst::ProportionalSharePolicy>(8.0)) {
    svc.node(0)->AttachModulator(
        std::make_shared<fst::ConstantFactorModulator>(2.0));
  }
  fst::Simulator sim;
  fst::KvService svc;
};

struct CellOut {
  bool traced = false;
  fst::FleetResult fleet;
  uint64_t client_digest = 0;
  std::string slo_report;
  int64_t events = 0;
  int64_t setup_ns = 0;
  int64_t run_ns = 0;
  std::vector<int64_t> segment_ns;  // untraced cells: run_ns by segment
  // Traced cells only: host time per call class.
  int64_t fill_ns = 0;
  int64_t loop_ns = 0;
  int64_t issue_ns = 0;
  int64_t drain_ns = 0;
};

// Same fold as ColumnarFleet::ClientDigest, over the traced loop's own
// tallies.
uint64_t ClientDigest(const std::vector<fst::ClientTally>& tallies) {
  uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const fst::ClientTally& t : tallies) {
    fold(static_cast<uint64_t>(t.issued));
    fold(static_cast<uint64_t>(t.ok));
    fold(static_cast<uint64_t>(t.failed));
  }
  return h;
}

void Finish(Stack& st, CellOut& out) {
  out.events = static_cast<int64_t>(st.sim.events_fired());
  out.slo_report = st.svc.slo().ReportJson(FleetShape().run_for);
}

// Layer counts and modelled (simulated-time) numbers from public getters.
void CollectCounts(Stack& st, const CellOut& c, JsonObject& layers) {
  fst::KvService& svc = st.svc;
  double tasks = 0.0;
  fst::Histogram task_ms;
  for (int i = 0; i < kNodes; ++i) {
    tasks += svc.node(i)->tasks_completed();
    task_ms.Merge(svc.node(i)->task_latency());
  }
  const double ops = static_cast<double>(c.fleet.ops_issued);
  layers.Num("simcore.events_per_op", ops > 0 ? c.events / ops : 0.0)
      .Int("cluster.admission.admitted", svc.admission().admitted())
      .Int("cluster.admission.rejected", svc.admission().rejected())
      .Num("cluster.shed_ratio", svc.slo().ShedRate())
      .Int("cluster.shard.rebalances", svc.shard_map().rebalances())
      .Int("cluster.ejections", svc.ejections())
      .Int("cluster.reweights", svc.reweights())
      .Num("devices.switch.delivered_mb",
           static_cast<double>(svc.network().total_delivered_bytes()) / 1e6)
      .Int("devices.switch.stalls", svc.network().stalls())
      .Num("devices.switch.p99_delivery_ms",
           svc.network().delivery_latency().P99() / 1e6)
      .Num("devices.node.tasks", tasks)
      .Num("devices.node.p99_task_ms", task_ms.P99() / 1e6)
      .Num("cluster.slo.p99_ms", svc.slo().P99Ms())
      .Num("cluster.slo.goodput_per_s",
           svc.slo().GoodputPerSec(FleetShape().run_for));
}

// Builds the untraced cell's simulator, service and fleet and returns the
// constructors' time: extra set-up samples beside each cell's own.
int64_t SetupProbeNs(uint64_t seed) {
  const int64_t t0 = NowNs();
  Stack st(seed);
  fst::ColumnarFleetParams cfp;
  cfp.base = FleetShape();
  cfp.num_clients = kClients;
  fst::ColumnarFleet fleet(st.sim, cfp);
  return NowNs() - t0;
}

CellOut RunUntracedCell(uint64_t seed, JsonObject* counts) {
  CellOut out;
  const int64_t t0 = NowNs();
  Stack st(seed);
  fst::ColumnarFleetParams cfp;
  cfp.base = FleetShape();
  cfp.num_clients = kClients;
  fst::ColumnarFleet fleet(st.sim, cfp);
  const int64_t t1 = NowNs();
  bool finished = false;
  fleet.Run(st.svc, [&](const fst::FleetResult& r) {
    out.fleet = r;
    finished = true;
  });
  int64_t t2 = t1;
  for (;;) {
    const uint64_t fired = st.sim.RunSteps(kSegmentEvents);
    const int64_t now = NowNs();
    out.segment_ns.push_back(now - t2);
    t2 = now;
    if (fired < kSegmentEvents) {
      break;
    }
  }
  if (!finished) {
    throw std::runtime_error("serve_1m: cell did not drain");
  }
  out.setup_ns = t1 - t0;
  out.run_ns = t2 - t1;
  out.client_digest = fleet.ClientDigest();
  Finish(st, out);
  if (counts != nullptr) {
    CollectCounts(st, out, *counts);
  }
  return out;
}

CellOut RunTracedCell(uint64_t seed, SpanLog& spans) {
  CellOut out;
  out.traced = true;
  const int64_t t0 = NowNs();
  Stack st(seed);
  const fst::FleetParams fp = FleetShape();
  fst::ArrivalGenerator gen(st.sim, fp, fst::ArrivalMode::kPoisson, {},
                            kClients);
  std::vector<fst::ClientTally> tallies(kClients);
  const int64_t t1 = NowNs();
  const int64_t cell_id = spans.NextId();

  fst::Simulator& sim = st.sim;
  fst::KvService& svc = st.svc;
  fst::FleetResult& res = out.fleet;
  const fst::SimTime horizon = sim.Now() + fp.run_for;
  fst::ArrivalBatch batch;
  int64_t pending = 0;

  const auto drain = [&] {
    for (const fst::CompletionRecord& r : svc.DrainCompletions()) {
      const bool ok = r.outcome == fst::SloOutcome::kAck;
      ++(ok ? res.ops_ok : res.ops_failed);
      ++(ok ? tallies[r.tag].ok : tallies[r.tag].failed);
      --pending;
    }
  };
  // One span per arrival window (and one for the tail), each with four
  // aggregate children: per-op spans would be 3M x 4.
  const auto close_window = [&](const char* name, int64_t w0, int64_t w1,
                                SpanAggregate* aggs) {
    out.drain_ns += aggs[0].busy_ns;
    out.fill_ns += aggs[1].busy_ns;
    out.loop_ns += aggs[2].busy_ns;
    out.issue_ns += aggs[3].busy_ns;
    if (!spans.enabled()) {
      return;
    }
    const int64_t id = spans.Exact(name, cell_id, w0, w1);
    spans.Aggregate("cluster.drain", id, aggs[0]);
    spans.Aggregate("fleet.fill", id, aggs[1]);
    spans.Aggregate("simcore.run", id, aggs[2]);
    spans.Aggregate("cluster.issue", id, aggs[3]);
  };

  for (;;) {
    SpanAggregate aggs[4];  // drain, fill, run, issue
    const int64_t w0 = NowNs();
    drain();
    const int64_t w1 = NowNs();
    aggs[0].Add(w0, w1);
    gen.FillWindow(batch, kWindow, horizon);
    int64_t a = NowNs();
    aggs[1].Add(w1, a);
    const size_t n = batch.size();
    if (n == 0) {
      close_window("serve_1m.window", w0, a, aggs);
      break;
    }
    for (size_t i = 0; i < n; ++i) {
      sim.ScheduleAt(batch.at[i], [&sim] { sim.RequestStop(); });
      sim.RunUntil(batch.at[i]);
      const int64_t b = NowNs();
      aggs[2].Add(a, b);
      // ColumnarFleet::IssueAt, call for call.
      const uint32_t client = batch.client[i];
      ++res.ops_issued;
      ++pending;
      ++tallies[client].issued;
      if (i + 1 < n) {
        __builtin_prefetch(&tallies[batch.client[i + 1]], 1);
        svc.PrefetchRoute(batch.key[i + 1]);
      }
      if (batch.is_read[i] != 0) {
        ++res.reads_issued;
        svc.GetTagged(batch.key[i], client);
      } else {
        ++res.writes_issued;
        svc.PutTagged(batch.key[i], client);
      }
      a = NowNs();
      aggs[3].Add(b, a);
    }
    close_window("serve_1m.window", w0, a, aggs);
  }

  // Tail: drain every kDrainEvery of simulated time until every issued op
  // is terminal (ColumnarFleet::TailTick), then let the queue empty.
  SpanAggregate aggs[4];
  const int64_t tail0 = NowNs();
  int64_t a = tail0;
  for (;;) {
    drain();
    const int64_t b = NowNs();
    aggs[0].Add(a, b);
    if (pending == 0 && svc.pending_completions() == 0) {
      sim.Run();
      a = NowNs();
      aggs[2].Add(b, a);
      break;
    }
    sim.RunUntil(sim.Now() + kDrainEvery);
    a = NowNs();
    aggs[2].Add(b, a);
  }
  close_window("serve_1m.tail", tail0, a, aggs);
  const int64_t t2 = a;

  out.setup_ns = t1 - t0;
  out.run_ns = t2 - t1;
  out.client_digest = ClientDigest(tallies);
  Finish(st, out);
  if (spans.enabled()) {
    Span cell;
    cell.id = cell_id;
    cell.name = "serve_1m.cell_traced";
    cell.start_ns = t0;
    cell.end_ns = t2;
    cell.busy_ns = t2 - t0;
    spans.Add(cell);
    spans.Exact("serve_1m.setup", cell_id, t0, t1);
  }
  return out;
}

std::string CellJson(const CellOut& c) {
  char digest[20];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(c.client_digest));
  JsonObject o;
  o.Bool("traced", c.traced)
      .Int("ops_issued", c.fleet.ops_issued)
      .Int("reads_issued", c.fleet.reads_issued)
      .Int("writes_issued", c.fleet.writes_issued)
      .Int("ops_ok", c.fleet.ops_ok)
      .Int("ops_failed", c.fleet.ops_failed)
      .Str("client_digest", digest)
      .Str("slo_report", c.slo_report)
      .Int("events", c.events)
      .Num("setup_s", NsToS(c.setup_ns))
      .Num("run_s", NsToS(c.run_ns));
  if (c.traced) {
    o.Num("fleet.fill_s", NsToS(c.fill_ns))
        .Num("simcore.run_s", NsToS(c.loop_ns))
        .Num("cluster.issue_s", NsToS(c.issue_ns))
        .Num("cluster.drain_s", NsToS(c.drain_ns));
  }
  return o.str();
}

}  // namespace

RunRecord RunServe1m(const Options& opt, SpanLog& spans) {
  RunRecord rec;
  std::vector<std::string> cells;
  const int64_t start = WallNs();
  const auto budget_ns = static_cast<int64_t>(opt.seconds * 1e9);
  int traced_cells = 0;
  // Trace runs alternate untraced and traced cells so the overhead ratio
  // compares neighbours in time. A cell takes seconds, so the run stops
  // before a cell that would, at the last cell's pace, end past the budget.
  for (size_t i = 0;; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    const int64_t wall0 = WallNs();
    const int64_t c0 = NowNs();
    const CellOut c = traced ? RunTracedCell(opt.seed, spans)
                             : RunUntracedCell(opt.seed,
                                               i == 0 ? &rec.layers : nullptr);
    if (traced) {
      ++traced_cells;
    } else {
      Pass p;
      p.host_s = NsToS(c.run_ns);
      // A cell has one set-up; the pass reports the median of it and
      // kSetupProbes more.
      std::vector<int64_t> setup = {c.setup_ns};
      for (int k = 0; k < kSetupProbes; ++k) {
        setup.push_back(SetupProbeNs(opt.seed));
      }
      std::sort(setup.begin(), setup.end());
      p.setup_s = NsToS(setup[setup.size() / 2]);
      p.cells = 1;
      p.sim_ops = c.fleet.ops_ok + c.fleet.ops_failed;
      // The cell's time is its set-up followed by the run's segments.
      std::vector<double> cell_segments = {NsToMs(c.setup_ns)};
      for (const int64_t ns : c.segment_ns) {
        p.segments_s.push_back(NsToS(ns));
        cell_segments.push_back(NsToMs(ns));
      }
      rec.passes.push_back(p);
      rec.cell_ms.push_back(NsToMs(c.setup_ns + c.run_ns));
      rec.cell_keys.push_back(0);
      rec.cell_segments_ms.push_back(std::move(cell_segments));
      if (rec.passes.size() == 1) {
        rec.peak_rss_mb = PeakRssMb();
      }
      if (spans.enabled()) {
        spans.Exact("serve_1m.cell_untraced", 0, c0, NowNs());
      }
    }
    cells.push_back(CellJson(c));
    const bool need_traced = opt.trace && traced_cells == 0;
    const int64_t now = WallNs();
    if (now - start + (now - wall0) > budget_ns && !need_traced) {
      break;
    }
  }
  rec.outputs.Raw("cells", JsonArray(cells));
  return rec;
}

}  // namespace perfbench

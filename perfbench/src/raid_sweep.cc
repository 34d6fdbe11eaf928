// raid_sweep: the paper's Section 3.2 grid through the SweepRunner.
//
// 3 stripers x 10 b/B ratios x 8 seeds (first seed = --seed), 4 mirror
// pairs, 2000 blocks, 5% per-request jitter, exactly as
// examples/sweep_campaign builds each cell. One pass is one 240-cell sweep
// on `workers` threads; passes repeat the same sweep until the time budget
// is spent, and every pass must reproduce pass 0's per-cell MB/s.
//
// Each cell is timed from inside the cell function in three phases:
//   devices.disk.setup  Simulator, 8 disks with modulators, the volume
//   raid.issue          WriteBlocks (static, adaptive) or Calibrate
//                       (proportional; its WriteBlocks then runs inside
//                       the event loop)
//   simcore.run         Simulator::Run until the batch completes
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/devices/disk.h"
#include "src/devices/modulators.h"
#include "src/faults/perf_fault.h"
#include "src/harness/sweep.h"
#include "src/raid/raid10.h"
#include "src/simcore/simulator.h"

namespace perfbench {
namespace {

constexpr int kPairs = 4;
constexpr double kBandwidth = 10.0;  // MB/s per pair
constexpr int64_t kBlocks = 2000;
constexpr double kJitterSigma = 0.05;
constexpr int kSeeds = 8;

fst::SweepSpec Spec(uint64_t first_seed) {
  fst::SweepSpec spec;
  spec.name = "raid_sweep";
  spec.axes = {
      {"striper", {0, 1, 2}, {"static", "proportional", "adaptive"}},
      {"ratio_pct", {10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, {}},
  };
  spec.seeds.clear();
  for (int i = 0; i < kSeeds; ++i) {
    spec.seeds.push_back(first_seed + static_cast<uint64_t>(i));
  }
  return spec;
}

struct CellTiming {
  int64_t start_ns = 0;
  int64_t setup_end_ns = 0;
  int64_t issue_end_ns = 0;
  int64_t end_ns = 0;
  int thread = 0;
  int64_t events = 0;
  int64_t disk_blocks = 0;
  int64_t blocks = 0;
  double mbps = 0.0;
};

int ThreadSlot() {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1) + 1;
  return slot;
}

// The sweep_campaign cell, with the phase clock reads added.
fst::CellResult Cell(const fst::CellPoint& point, CellTiming& t) {
  t.thread = ThreadSlot();
  t.start_ns = NowNs();
  const auto kind = static_cast<fst::StriperKind>(
      static_cast<int>(point.Value("striper")));
  const double ratio = point.Value("ratio_pct") / 100.0;
  const double slow_factor = 1.0 / ratio;

  fst::Simulator sim(point.seed);
  fst::DiskParams params;
  params.flat_bandwidth_mbps = kBandwidth;
  params.block_bytes = 65536;
  std::vector<std::unique_ptr<fst::Disk>> disks;
  for (int i = 0; i < 2 * kPairs; ++i) {
    disks.push_back(
        std::make_unique<fst::Disk>(sim, "disk" + std::to_string(i), params));
    disks.back()->AttachModulator(std::make_shared<fst::RandomJitterModulator>(
        sim.rng().Fork(), kJitterSigma));
  }
  if (slow_factor > 1.0) {
    disks[0]->AttachModulator(
        std::make_shared<fst::ConstantFactorModulator>(slow_factor));
  }
  std::vector<fst::Disk*> raw;
  for (auto& d : disks) {
    raw.push_back(d.get());
  }
  fst::VolumeConfig config;
  config.block_bytes = 65536;
  config.striper = kind;
  fst::Raid10Volume volume(sim, config, raw);
  t.setup_end_ns = NowNs();

  fst::CellResult r;
  auto write = [&]() {
    volume.WriteBlocks(kBlocks, [&r, &t](const fst::BatchResult& res) {
      r.value = res.ThroughputMbps();
      t.blocks = res.blocks;
    });
  };
  if (kind == fst::StriperKind::kProportional) {
    volume.Calibrate(write);
  } else {
    write();
  }
  t.issue_end_ns = NowNs();
  sim.Run();
  t.end_ns = NowNs();

  r.fire_digest = sim.fire_digest();
  r.events_fired = sim.events_fired();
  t.events = static_cast<int64_t>(sim.events_fired());
  for (const auto& d : disks) {
    t.disk_blocks += d->blocks_serviced();
  }
  t.mbps = r.value;
  return r;
}

// FNV-1a over the bit patterns of every cell's MB/s, in grid order.
uint64_t MbpsDigest(const std::vector<CellTiming>& cells) {
  uint64_t h = 14695981039346656037ull;
  for (const CellTiming& c : cells) {
    uint64_t bits = 0;
    std::memcpy(&bits, &c.mbps, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

RunRecord RunRaidSweep(const Options& opt, SpanLog& spans) {
  const fst::SweepSpec spec = Spec(opt.seed);
  const fst::SweepRunner runner(opt.workers);
  RunRecord rec;
  std::vector<std::string> digests;
  std::vector<double> setup_ms, issue_ms, run_ms;
  int64_t cell_ns = 0, wall_ns = 0, run_ns = 0, events = 0;
  const int64_t start = WallNs();
  const auto budget_ns = static_cast<int64_t>(opt.seconds * 1e9);
  for (int64_t pass = 0;; ++pass) {
    std::vector<CellTiming> timing(spec.CellCount());
    const int64_t p0 = NowNs();
    runner.Run(spec, [&timing](const fst::CellPoint& pt) {
      return Cell(pt, timing[pt.index]);
    });
    const int64_t p1 = NowNs();

    Pass p;
    p.host_s = NsToS(p1 - p0);
    p.cells = static_cast<int64_t>(timing.size());
    const int64_t pass_id = spans.enabled()
                                ? spans.Exact("raid_sweep.pass", 0, p0, p1)
                                : 0;
    for (size_t i = 0; i < timing.size(); ++i) {
      const CellTiming& t = timing[i];
      p.setup_s += NsToS(t.setup_end_ns - t.start_ns);
      p.sim_ops += t.blocks;
      rec.cell_ms.push_back(NsToMs(t.end_ns - t.start_ns));
      rec.cell_keys.push_back(static_cast<int64_t>(i));
      cell_ns += t.end_ns - t.start_ns;
      run_ns += t.end_ns - t.issue_end_ns;
      events += t.events;
      if (opt.trace) {
        setup_ms.push_back(NsToMs(t.setup_end_ns - t.start_ns));
        issue_ms.push_back(NsToMs(t.issue_end_ns - t.setup_end_ns));
        run_ms.push_back(NsToMs(t.end_ns - t.issue_end_ns));
      }
      if (spans.enabled()) {
        const int64_t cell =
            spans.Exact("raid_sweep.cell", pass_id, t.start_ns, t.end_ns,
                        t.thread);
        spans.Exact("devices.disk.setup", cell, t.start_ns, t.setup_end_ns,
                    t.thread);
        spans.Exact("raid.issue", cell, t.setup_end_ns, t.issue_end_ns,
                    t.thread);
        spans.Exact("simcore.run", cell, t.issue_end_ns, t.end_ns, t.thread);
      }
    }
    wall_ns += p1 - p0;
    rec.passes.push_back(p);
    char hex[20];
    std::snprintf(hex, sizeof(hex), "\"%016llx\"",
                  static_cast<unsigned long long>(MbpsDigest(timing)));
    digests.push_back(hex);

    if (pass == 0) {
      rec.peak_rss_mb = PeakRssMb();
      std::vector<std::string> cells;
      int64_t disk_blocks = 0, pass_events = 0;
      for (size_t i = 0; i < timing.size(); ++i) {
        const fst::CellPoint pt = fst::SweepRunner::PointAt(spec, i);
        cells.push_back(JsonObject()
                            .Str("striper", pt.Label(0))
                            .Num("ratio_pct", pt.Value("ratio_pct"))
                            .Int("seed", static_cast<int64_t>(pt.seed))
                            .Int("blocks", timing[i].blocks)
                            .Num("mbps", timing[i].mbps)
                            .str());
        disk_blocks += timing[i].disk_blocks;
        pass_events += timing[i].events;
      }
      rec.outputs.Int("pairs", kPairs)
          .Num("bandwidth_mbps", kBandwidth)
          .Raw("cells", JsonArray(cells));
      rec.layers.Int("devices.disk.blocks", disk_blocks)
          .Num("simcore.events_per_cell",
               static_cast<double>(pass_events) /
                   static_cast<double>(timing.size()));
    }
    if (WallNs() - start >= budget_ns) {
      break;
    }
  }
  rec.outputs.Raw("mbps_digests", JsonArray(digests));
  if (opt.trace) {
    rec.layers.Num("devices.disk.setup_ms", Median(setup_ms))
        .Num("raid.issue_ms", Median(issue_ms))
        .Num("simcore.run_ms", Median(run_ms))
        .Num("simcore.host_ns_per_event",
             events > 0 ? static_cast<double>(run_ns) / events : 0.0)
        .Num("harness.busy_share",
             static_cast<double>(cell_ns) /
                 (static_cast<double>(runner.threads()) *
                  static_cast<double>(wall_ns)));
  }
  return rec;
}

}  // namespace perfbench

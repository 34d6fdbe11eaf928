// The full Section 3.2 campaign as one parallel sweep: 3 stripers × 10
// b/B ratios × 8 seeds (240 cells), each cell an isolated seeded
// Simulator + RAID-10 volume with per-request jitter, fanned across the
// SweepRunner and aggregated deterministically — the output is
// byte-identical for any thread count.
//
//   $ ./examples/sweep_campaign [threads] [out_dir]
//
// threads: worker threads (default FST_SWEEP_THREADS or hardware width).
// out_dir: where campaign.json / campaign.csv land (default "."; pass ""
//          to skip writing).
// A malformed argument prints usage and exits 1.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "examples/cli_args.h"
#include "src/analysis/experiment.h"
#include "src/analysis/table.h"
#include "src/devices/disk.h"
#include "src/devices/modulators.h"
#include "src/faults/perf_fault.h"
#include "src/harness/sweep.h"
#include "src/obs/export.h"
#include "src/raid/raid10.h"
#include "src/simcore/simulator.h"

namespace {

constexpr int kPairs = 4;       // N
constexpr double kBandwidth = 10.0;  // B, MB/s per pair
constexpr int64_t kBlocks = 2000;    // D
constexpr double kJitterSigma = 0.05;

fst::SweepSpec CampaignSpec() {
  fst::SweepSpec spec;
  spec.name = "section_3_2_campaign";
  spec.axes = {
      {"striper", {0, 1, 2}, {"static", "proportional", "adaptive"}},
      {"ratio_pct",
       {10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
       {}},
  };
  spec.seeds = {101, 102, 103, 104, 105, 106, 107, 108};
  return spec;
}

fst::CellResult CampaignCell(const fst::CellPoint& point) {
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

  fst::CellResult r;
  auto write = [&]() {
    volume.WriteBlocks(kBlocks, [&r](const fst::BatchResult& res) {
      r.value = res.ThroughputMbps();
    });
  };
  if (kind == fst::StriperKind::kProportional) {
    volume.Calibrate(write);
  } else {
    write();
  }
  sim.Run();
  r.fire_digest = sim.fire_digest();
  r.events_fired = sim.events_fired();
  const double b = kBandwidth * ratio;
  r.metrics.emplace_back("paper_MBps",
                         kind == fst::StriperKind::kStatic
                             ? kPairs * b
                             : (kPairs - 1) * kBandwidth + b);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 0;
  if (argc > 3 || (argc > 1 && !fst::ParseWholeInt(argv[1], &threads))) {
    std::fprintf(stderr, "usage: sweep_campaign [threads] [out_dir]\n");
    return 1;
  }
  const std::string out_dir = argc > 2 ? argv[2] : ".";

  const fst::SweepSpec spec = CampaignSpec();
  fst::SweepRunner runner(threads);
  std::printf("section 3.2 campaign: %zu cells (%zu configs x %zu seeds), "
              "%d threads\n\n",
              spec.CellCount(), spec.ConfigCount(), spec.seeds.size(),
              runner.threads());

  const std::vector<fst::CellResult> results =
      runner.Run(spec, CampaignCell);
  const std::vector<fst::SweepGroup> groups =
      fst::SummarizeByConfig(spec, results);

  // Per-config summary table: rows are b/B, columns the three designs.
  fst::Table table({"b/B", "static", "ci95", "proportional", "ci95",
                    "adaptive", "ci95", "(N-1)*B+b"});
  const size_t n_ratios = spec.axes[1].values.size();
  for (size_t rix = 0; rix < n_ratios; ++rix) {
    const double ratio = spec.axes[1].values[rix] / 100.0;
    std::vector<std::string> row{fst::FormatDouble(ratio, 2)};
    for (size_t six = 0; six < 3; ++six) {
      const auto& g = groups[six * n_ratios + rix];
      row.push_back(fst::FormatDouble(g.stats.mean, 1));
      row.push_back(fst::FormatDouble(g.stats.ci95, 2));
    }
    row.push_back(fst::FormatDouble((kPairs - 1) * kBandwidth +
                                        kBandwidth * ratio, 1));
    table.AddRow(row);
  }
  std::printf("%s\n", table.Render().c_str());

  // Paper-shape verdicts on the per-config means. Jitter moves each mean a
  // few percent, so the tolerance is looser than the jitter-free benches.
  fst::ShapeReport report;
  for (const auto& g : groups) {
    const auto kind = static_cast<fst::StriperKind>(
        static_cast<int>(g.axis_values[0]));
    const double ratio = g.axis_values[1] / 100.0;
    const double b = kBandwidth * ratio;
    const double predicted = kind == fst::StriperKind::kStatic
                                 ? kPairs * b
                                 : (kPairs - 1) * kBandwidth + b;
    report.Check(spec.axes[0].Label(g.axis_index[0]) + "@" +
                     fst::FormatDouble(ratio, 2),
                 g.stats.mean, predicted, 0.20);
  }
  std::printf("%s\n", report.Render().c_str());

  if (!out_dir.empty()) {
    const std::string json_path = out_dir + "/campaign.json";
    const std::string csv_path = out_dir + "/campaign.csv";
    bool ok = fst::WriteTextFile(json_path,
                                 fst::SweepReportJson(spec, results));
    ok = fst::WriteTextFile(csv_path, fst::SweepReportCsv(spec, results)) && ok;
    if (!ok) {
      std::fprintf(stderr, "failed writing %s / %s\n", json_path.c_str(),
                   csv_path.c_str());
      return 1;
    }
    std::printf("wrote %s and %s\n", json_path.c_str(), csv_path.c_str());
  }
  return report.AllPass() ? 0 : 2;
}

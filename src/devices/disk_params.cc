#include "src/devices/disk_params.h"

#include "src/simcore/rng.h"

namespace fst {

DiskParams MakeSeagateHawkParams() {
  DiskParams p;
  p.model = "seagate-hawk-5400";
  p.capacity_blocks = 1 << 19;  // 2 GiB at 4 KiB
  p.block_bytes = 4096;
  p.rpm = 5400.0;
  p.avg_seek = Duration::Millis(9);
  p.flat_bandwidth_mbps = 5.5;
  return p;
}

DiskParams MakeDegradedHawkParams() {
  DiskParams p = MakeSeagateHawkParams();
  p.model = "seagate-hawk-5400-degraded";
  return p;
}

DiskParams MakeZonedDiskParams(double outer_mbps, double outer_to_inner,
                               int zone_count, int64_t capacity_blocks) {
  DiskParams p;
  p.model = "zoned";
  p.capacity_blocks = capacity_blocks;
  const int64_t per_zone = capacity_blocks / zone_count;
  for (int z = 0; z < zone_count; ++z) {
    // Bandwidth falls linearly from outer_mbps to outer_mbps/ratio.
    const double frac =
        zone_count > 1 ? static_cast<double>(z) / (zone_count - 1) : 0.0;
    const double inner = outer_mbps / outer_to_inner;
    DiskZone zone;
    zone.start_block = z * per_zone;
    zone.end_block = (z == zone_count - 1) ? capacity_blocks : (z + 1) * per_zone;
    zone.bandwidth_mbps = outer_mbps + frac * (inner - outer_mbps);
    p.zones.push_back(zone);
  }
  return p;
}

void ApplyBadBlockProfile(Disk& disk, int64_t span_blocks, int remap_count,
                          uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < remap_count; ++i) {
    disk.AddRemappedBlocks(rng.UniformInt(0, span_blocks - 1), 1);
  }
}

}  // namespace fst

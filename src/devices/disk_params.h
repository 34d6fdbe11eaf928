// Ready-made disk parameter presets, anchored to the devices the paper
// cites, plus helpers for building zoned layouts.
#ifndef SRC_DEVICES_DISK_PARAMS_H_
#define SRC_DEVICES_DISK_PARAMS_H_

#include "src/devices/disk.h"

namespace fst {

// The 5400-RPM Seagate Hawk from the paper's bandwidth experiment
// (Section 2.1.2): ~5.5 MB/s sequential reads.
DiskParams MakeSeagateHawkParams();

// A Hawk whose SCSI firmware silently remapped enough blocks to deliver
// only ~5.0 MB/s on the same workload — the paper's "fault masking" disk.
// The returned params are identical; callers apply `ApplyBadBlockProfile`
// to the constructed Disk to get the degraded behavior.
DiskParams MakeDegradedHawkParams();

// A multi-zone disk with `zone_count` zones spanning outer:inner bandwidth
// ratio `outer_to_inner` (the paper cites up to a factor of two).
DiskParams MakeZonedDiskParams(double outer_mbps, double outer_to_inner,
                               int zone_count, int64_t capacity_blocks);

// Sprinkles `remap_count` remapped blocks uniformly across the first
// `span_blocks` blocks of the disk (deterministic given `seed`).
void ApplyBadBlockProfile(Disk& disk, int64_t span_blocks, int remap_count,
                          uint64_t seed);

}  // namespace fst

#endif  // SRC_DEVICES_DISK_PARAMS_H_

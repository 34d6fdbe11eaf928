// A simulated disk drive.
//
// Models the mechanisms behind the performance-fault anecdotes of Section
// 2.1.2 of the paper:
//   * multi-zone geometry: outer zones transfer up to ~2x faster than inner
//     ones (Van Meter);
//   * transparent bad-block remapping: a remapped block costs an extra
//     repositioning, which is how one Seagate Hawk delivered 5.0 instead of
//     5.5 MB/s (Arpaci-Dusseau);
//   * offline windows (thermal recalibration per Bolosky et al., SCSI bus
//     resets per Talagala & Patterson) via attached ServiceModulators;
//   * fail-stop death.
//
// The disk is a FIFO single-server queue in virtual time. Sequential
// requests (starting where the previous one ended) skip the positioning
// cost; others pay seek + rotational latency.
#ifndef SRC_DEVICES_DISK_H_
#define SRC_DEVICES_DISK_H_

#include <cstdint>
#include <deque>
#include <set>
#include <string>

#include "src/devices/device.h"
#include "src/obs/recorder.h"
#include "src/simcore/metrics.h"
#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {

enum class IoKind { kRead, kWrite };

struct DiskRequest {
  IoKind kind = IoKind::kWrite;
  int64_t offset_blocks = 0;
  int64_t nblocks = 1;
  IoCallback done;
  // Assigned by the disk when an EventRecorder is attached; joins this
  // request's enqueue/start/complete trace events.
  uint64_t trace_id = 0;
};

// A bandwidth zone covering [start_block, end_block).
struct DiskZone {
  int64_t start_block = 0;
  int64_t end_block = 0;
  double bandwidth_mbps = 0.0;
};

struct DiskParams {
  std::string model = "generic";
  int64_t capacity_blocks = 1 << 21;  // 8 GiB at 4 KiB blocks
  int64_t block_bytes = 4096;
  double rpm = 5400.0;
  Duration avg_seek = Duration::Millis(8);
  // Zone layout; if empty, a single flat zone at `flat_bandwidth_mbps`.
  std::vector<DiskZone> zones;
  double flat_bandwidth_mbps = 5.5;
  // Extra positioning cost charged per remapped block touched.
  Duration remap_penalty = Duration::Millis(12);

  // Average rotational latency: half a revolution.
  Duration AvgRotation() const {
    return Duration::Seconds(0.5 * 60.0 / rpm);
  }
};

class Disk : public FaultableDevice {
 public:
  Disk(Simulator& sim, std::string name, DiskParams params,
       MetricRegistry* metrics = nullptr, EventRecorder* recorder = nullptr);

  const DiskParams& params() const { return params_; }

  // Enqueues a request; `req.done` fires when service completes (or
  // immediately with ok=false if the disk has fail-stopped).
  void Submit(DiskRequest req);

  // Marks [start, start+n) as remapped; subsequent access pays the penalty.
  void AddRemappedBlocks(int64_t start, int64_t n);
  size_t remapped_block_count() const { return remapped_.size(); }

  void FailStop() override;

  // Bandwidth of the zone containing `block`, before modulation, MB/s.
  double ZoneBandwidthMbps(int64_t block) const;

  // Nominal sequential bandwidth (outermost zone), the number printed on
  // the spec sheet — what a naive PerformanceSpec would assume.
  double NominalBandwidthMbps() const;

  // Pure service time (no queueing) a request would cost if started at
  // `now` with the head at `head`; used by tests and the estimator.
  Duration EstimateServiceTime(const DiskRequest& req, int64_t head,
                               SimTime now) const;

  size_t queue_depth() const { return queue_.size() + (busy_ ? 1 : 0); }
  int64_t blocks_serviced() const { return blocks_serviced_; }

  // Utilization in [0,1] over the run so far.
  double Utilization() const;

 private:
  void MaybeStart();
  void StartService(DiskRequest req, SimTime issued);
  void CompleteService(const DiskRequest& req, SimTime issued, SimTime started);

  Simulator& sim_;
  DiskParams params_;
  MetricRegistry* metrics_;
  EventRecorder* recorder_;
  uint16_t trace_comp_ = 0;

  std::deque<std::pair<DiskRequest, SimTime>> queue_;  // request, issue time
  bool busy_ = false;
  int64_t head_pos_ = 0;      // block index after last transfer
  std::set<int64_t> remapped_;
  int64_t blocks_serviced_ = 0;
  Duration busy_time_ = Duration::Zero();
  SimTime first_activity_;
  SimTime last_activity_;
  bool saw_activity_ = false;
};

}  // namespace fst

#endif  // SRC_DEVICES_DISK_H_

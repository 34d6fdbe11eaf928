#include "src/devices/disk.h"

#include <algorithm>
#include <cmath>

namespace fst {

namespace {

constexpr double kMega = 1e6;

}  // namespace

Disk::Disk(Simulator& sim, std::string name, DiskParams params,
           MetricRegistry* metrics, EventRecorder* recorder)
    : FaultableDevice(std::move(name)), sim_(sim), params_(std::move(params)),
      metrics_(metrics), recorder_(recorder) {
  if (recorder_ != nullptr) {
    trace_comp_ = recorder_->Intern(this->name());
  }
  if (params_.zones.empty()) {
    params_.zones.push_back(DiskZone{0, params_.capacity_blocks,
                                     params_.flat_bandwidth_mbps});
  }
}

double Disk::ZoneBandwidthMbps(int64_t block) const {
  for (const DiskZone& z : params_.zones) {
    if (block >= z.start_block && block < z.end_block) {
      return z.bandwidth_mbps;
    }
  }
  // Out-of-range access clamps to the last (innermost) zone.
  return params_.zones.back().bandwidth_mbps;
}

double Disk::NominalBandwidthMbps() const {
  double best = 0.0;
  for (const DiskZone& z : params_.zones) {
    best = std::max(best, z.bandwidth_mbps);
  }
  return best;
}

Duration Disk::EstimateServiceTime(const DiskRequest& req, int64_t head,
                                   SimTime now) const {
  Duration t = Duration::Zero();
  const bool sequential = (req.offset_blocks == head);
  if (!sequential) {
    t += params_.avg_seek + params_.AvgRotation();
  }
  // Transfer, block by zone (requests rarely straddle zones, but handle it).
  int64_t block = req.offset_blocks;
  int64_t remaining = req.nblocks;
  while (remaining > 0) {
    const double bw = ZoneBandwidthMbps(block);
    const DiskZone* zone = &params_.zones.back();
    for (const DiskZone& z : params_.zones) {
      if (block >= z.start_block && block < z.end_block) {
        zone = &z;
        break;
      }
    }
    const int64_t in_zone = std::min(remaining, zone->end_block - block);
    const int64_t chunk = in_zone > 0 ? in_zone : remaining;
    const double bytes = static_cast<double>(chunk * params_.block_bytes);
    t += Duration::Seconds(bytes / (bw * kMega));
    block += chunk;
    remaining -= chunk;
  }
  // Remap penalties for any remapped blocks touched.
  if (!remapped_.empty()) {
    auto it = remapped_.lower_bound(req.offset_blocks);
    while (it != remapped_.end() && *it < req.offset_blocks + req.nblocks) {
      t += params_.remap_penalty;
      ++it;
    }
  }
  return t * CompositeTimeFactor(now);
}

void Disk::AddRemappedBlocks(int64_t start, int64_t n) {
  for (int64_t b = start; b < start + n; ++b) {
    remapped_.insert(b);
  }
}

void Disk::FailStop() {
  if (failed_) {
    return;
  }
  failed_ = true;
  // Complete everything pending with ok=false so peers can detect death.
  const SimTime now = sim_.Now();
  std::deque<std::pair<DiskRequest, SimTime>> doomed;
  doomed.swap(queue_);
  for (auto& [req, issued] : doomed) {
    if (req.done) {
      IoResult r;
      r.ok = false;
      r.issued = issued;
      r.completed = now;
      req.done(r);
    }
  }
  NotifyFailure();
}

void Disk::Submit(DiskRequest req) {
  const SimTime now = sim_.Now();
  if (failed_) {
    if (req.done) {
      IoResult r;
      r.ok = false;
      r.issued = now;
      r.completed = now;
      req.done(r);
    }
    return;
  }
  if (recorder_ != nullptr && recorder_->request_spans()) {
    req.trace_id = recorder_->NextRequestId();
    recorder_->RequestEnqueue(now, trace_comp_, req.trace_id, -1,
                              static_cast<double>(queue_depth() + 1));
  }
  queue_.emplace_back(std::move(req), now);
  MaybeStart();
}

void Disk::MaybeStart() {
  if (busy_ || queue_.empty() || failed_) {
    return;
  }
  auto [req, issued] = std::move(queue_.front());
  queue_.pop_front();
  busy_ = true;
  StartService(std::move(req), issued);
}

void Disk::StartService(DiskRequest req, SimTime issued) {
  const SimTime now = sim_.Now();
  // If an offline window (recalibration, bus reset) covers `now`, defer.
  if (auto off = CompositeOffline(now); off.has_value() && !off->IsZero()) {
    const Duration wait = *off;
    sim_.Schedule(wait, [this, req = std::move(req), issued]() mutable {
      if (failed_) {
        if (req.done) {
          IoResult r;
          r.ok = false;
          r.issued = issued;
          r.completed = sim_.Now();
          req.done(r);
        }
        busy_ = false;
        MaybeStart();
        return;
      }
      StartService(std::move(req), issued);
    });
    return;
  }
  const Duration service = EstimateServiceTime(req, head_pos_, now);
  if (!saw_activity_) {
    saw_activity_ = true;
    first_activity_ = now;
  }
  busy_time_ += service;
  if (recorder_ != nullptr && req.trace_id != 0) {
    recorder_->RequestStart(now, trace_comp_, req.trace_id, -1, now - issued);
  }
  sim_.Schedule(service, [this, req = std::move(req), issued, started = now]() {
    CompleteService(req, issued, started);
  });
}

void Disk::CompleteService(const DiskRequest& req, SimTime issued,
                           SimTime started) {
  const SimTime now = sim_.Now();
  head_pos_ = req.offset_blocks + req.nblocks;
  blocks_serviced_ += req.nblocks;
  last_activity_ = now;
  const Duration latency = now - issued;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("disk." + name() + ".blocks").Increment(
        static_cast<double>(req.nblocks));
    metrics_->GetHistogram("disk." + name() + ".latency_ns").AddDuration(latency);
  }
  if (recorder_ != nullptr && req.trace_id != 0) {
    recorder_->RequestComplete(now, trace_comp_, req.trace_id, -1,
                               started - issued, now - started);
  }
  IoResult r;
  r.ok = true;
  r.issued = issued;
  r.completed = now;
  if (req.done) {
    req.done(r);
  }
  busy_ = false;
  MaybeStart();
}

double Disk::Utilization() const {
  if (!saw_activity_ || last_activity_ <= first_activity_) {
    return 0.0;
  }
  return busy_time_ / (last_activity_ - first_activity_);
}

}  // namespace fst

// LivePlane: the single attachment point between the serving layer and
// the online telemetry machinery.
//
// A KvService owns (at most) one LivePlane. On every completed replica
// request it calls ObserveNode(); on every telemetry tick it calls Tick()
// with its cumulative SLO outcome counts. The plane fans those into the
// per-node ExpectationTracker (windowed baselines + stutter scores) and
// the SloBurnAlerter (multi-window error-budget burn). Disabled is the
// default and is genuinely zero-cost: no allocations beyond this struct,
// every call returns immediately, and no events or RNG draws happen, so
// seed fire_digest goldens are bit-identical with the plane compiled in.
#ifndef SRC_OBS_LIVE_LIVE_PLANE_H_
#define SRC_OBS_LIVE_LIVE_PLANE_H_

#include <string>

#include "src/obs/live/burn_rate.h"
#include "src/obs/live/expectation.h"
#include "src/simcore/time.h"

namespace fst {

struct LivePlaneParams {
  bool enabled = false;
  // Telemetry tick cadence; also forced onto expectation.window so the
  // tracker closes exactly one window per tick.
  Duration window = Duration::Millis(250);
  ExpectationParams expectation;
  BurnRateParams burn;
};

class LivePlane {
 public:
  LivePlane(int nodes, LivePlaneParams params);

  bool enabled() const { return params_.enabled; }
  Duration window() const { return params_.window; }

  // One completed unit of replica work: `units` of backlog-normalized
  // work finished in `latency`, fed straight to the tracker. No-op when
  // disabled.
  void ObserveNode(int node, SimTime now, double units, Duration latency);

  // One telemetry tick: closes expectation windows up to `now` and feeds
  // the burn alerter the cumulative outcome counts. No-op when disabled.
  void Tick(SimTime now, OutcomeCounts cum);

  const ExpectationTracker& expectation() const { return expectation_; }
  const SloBurnAlerter& burn() const { return burn_; }

  // {"enabled":...,"expectation":[...],"gray_spans":[...],"burn":{...}}
  std::string Json() const;

 private:
  LivePlaneParams params_;
  ExpectationTracker expectation_;
  SloBurnAlerter burn_;
};

}  // namespace fst

#endif  // SRC_OBS_LIVE_LIVE_PLANE_H_

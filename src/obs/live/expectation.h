// ExpectationTracker: online per-node performance baselines and a
// continuous stutter score.
//
// This is the paper's Section 3.1 ("utilizing information about
// component performance") made operational *during* the run: each node's
// normalized request cost (seconds per unit of work, the same
// backlog-normalized quantity the hysteresis detectors consume) streams
// into tumbling sim-time windows; every closed window is scored against
//
//   * the node's own baseline — an EWMA of its historical window means —
//     catching drift against self ("this disk is slower than it used to
//     be"), and
//   * the peer median of the same window — catching deviation from the
//     fleet ("this disk is slower than its identical twins"), the
//     comparison that stays honest even when the workload itself shifts.
//
// The stutter score is max(self ratio, peer ratio): 1.0 means "exactly
// as expected", 1.35 means "35% slower than expectations". Unlike the
// hysteresis detector there is no threshold and no state machine — the
// score is continuous, so *gray* failures (persistent stutter below the
// detector's enter_deficit) surface here long before (or without ever)
// tripping a transition. The baseline freezes while a window scores
// above baseline_freeze_score, so a long gray stutter cannot quietly
// become the new normal.
#ifndef SRC_OBS_LIVE_EXPECTATION_H_
#define SRC_OBS_LIVE_EXPECTATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/live/window_stats.h"
#include "src/simcore/time.h"

namespace fst {

struct ExpectationParams {
  Duration window = Duration::Millis(250);
  int windows_kept = 8;  // rolling-quantile span = window * windows_kept
  int sketch_bits = 5;
  // EWMA fold per closed (unfrozen, non-empty) window.
  double baseline_alpha = 0.2;
  // Scores are forced to 1.0 until a node has this many non-empty closed
  // windows (cold caches and ramping queues are not stutter).
  int warmup_windows = 4;
  // A window scoring at or above this counts as live-plane stutter
  // evidence (gray spans); chosen below the detectors' default
  // enter_deficit of 1.5 — the whole point is seeing under it.
  double score_threshold = 1.2;
  // Windows scoring at or above this do not update the baseline.
  double baseline_freeze_score = 1.15;
};

// One (node, window) observation of the series export.
struct ExpectationRow {
  SimTime window_start;
  int node = 0;
  uint64_t samples = 0;
  double mean_cost = 0.0;  // seconds per work unit over the window
  double p95_cost = 0.0;
  double rolling_p50 = 0.0;  // over the trailing windows_kept windows
  double rolling_p95 = 0.0;
  double rolling_p99 = 0.0;
  double rate = 0.0;        // completions per second in the window
  double baseline = 0.0;    // EWMA baseline cost at scoring time
  double score_self = 0.0;  // mean_cost / baseline
  double score_peer = 0.0;  // mean_cost / peer median mean_cost
  double score = 0.0;       // max(self, peer); 0 for empty windows
};

// A maximal run of consecutive windows scoring >= score_threshold on one
// node: the live plane's "something is off here" interval.
struct GraySpan {
  int node = 0;
  SimTime start;
  SimTime end;  // exclusive: start of the first window past the run
  double peak_score = 0.0;
  int windows = 0;
};

class ExpectationTracker {
 public:
  ExpectationTracker(int nodes, ExpectationParams params);

  // One completed request on `node`: `units` of work delivered in
  // `latency` (callers pass the same backlog-normalized units they feed
  // the registry, so queueing at a healthy node does not read as
  // stutter).
  void Observe(int node, SimTime now, double units, Duration latency);

  // Closes and scores every window ending at or before `now`, across all
  // nodes in lockstep (peer medians are per-window). Called on the
  // LivePlane sampling tick; cadence should equal params.window.
  void AdvanceTo(SimTime now);

  // Latest non-empty closed-window score (1.0 until warmup completes).
  double StutterScore(int node) const;
  // Highest score any closed window reached on `node`.
  double MaxScore(int node) const;
  double BaselineCost(int node) const;

  const std::vector<ExpectationRow>& series() const { return series_; }
  std::vector<GraySpan> GraySpans() const;

  // Fixed-format JSON array of series rows (stable across platforms and
  // sweep thread counts).
  std::string SeriesJson() const;

  const ExpectationParams& params() const { return params_; }
  int nodes() const { return static_cast<int>(per_node_.size()); }

 private:
  struct NodeState {
    explicit NodeState(const ExpectationParams& p)
        : windows(p.window, p.windows_kept, p.sketch_bits) {}
    WindowedQuantiles windows;
    double baseline = 0.0;
    bool baseline_seeded = false;
    int nonempty_windows = 0;
    double last_score = 1.0;
    double max_score = 0.0;
  };

  void CloseWindow(int64_t index);

  ExpectationParams params_;
  std::vector<NodeState> per_node_;
  std::vector<ExpectationRow> series_;
  int64_t next_close_ = 0;
  bool started_ = false;
};

}  // namespace fst

#endif  // SRC_OBS_LIVE_EXPECTATION_H_

#include "src/obs/live/expectation.h"

#include <algorithm>
#include <cstdio>

namespace fst {

ExpectationTracker::ExpectationTracker(int nodes, ExpectationParams params)
    : params_(params) {
  per_node_.reserve(static_cast<size_t>(std::max(0, nodes)));
  for (int i = 0; i < nodes; ++i) {
    per_node_.emplace_back(params_);
  }
}

void ExpectationTracker::Observe(int node, SimTime now, double units,
                                 Duration latency) {
  if (node < 0 || node >= nodes()) {
    return;
  }
  if (!started_) {
    started_ = true;
    next_close_ = now.nanos() / params_.window.nanos();
  }
  const double cost =
      latency.ToSeconds() / std::max(units, 1e-12);  // seconds per unit
  per_node_[static_cast<size_t>(node)].windows.Record(now, cost);
}

void ExpectationTracker::AdvanceTo(SimTime now) {
  const int64_t target = now.nanos() / params_.window.nanos();
  if (!started_) {
    started_ = true;
    next_close_ = target;
    return;
  }
  while (next_close_ < target) {
    CloseWindow(next_close_);
    ++next_close_;
  }
}

void ExpectationTracker::CloseWindow(int64_t index) {
  const SimTime window_start(index * params_.window.nanos());
  const SimTime window_end = window_start + params_.window;
  const double window_s = params_.window.ToSeconds();

  // Close this window on every node in lockstep, collecting the per-node
  // window means for the peer median.
  std::vector<double> means;
  means.reserve(per_node_.size());
  for (NodeState& ns : per_node_) {
    ns.windows.AdvanceTo(window_end);
    const QuantileSketch& w = ns.windows.LastClosed();
    if (w.count() > 0) {
      means.push_back(w.mean());
    }
  }
  double peer_median = 0.0;
  if (!means.empty()) {
    std::sort(means.begin(), means.end());
    const size_t n = means.size();
    peer_median = (means[(n - 1) / 2] + means[n / 2]) / 2.0;
  }

  for (int node = 0; node < nodes(); ++node) {
    NodeState& ns = per_node_[static_cast<size_t>(node)];
    const QuantileSketch& w = ns.windows.LastClosed();
    ExpectationRow row;
    row.window_start = window_start;
    row.node = node;
    row.samples = w.count();
    const QuantileSketch rolling = ns.windows.Rolling();
    row.rolling_p50 = rolling.P50();
    row.rolling_p95 = rolling.P95();
    row.rolling_p99 = rolling.P99();
    if (w.count() == 0) {
      // A silent window scores nothing: a crashed node is the liveness
      // detector's job, and "no evidence" must not read as "healthy".
      series_.push_back(row);
      continue;
    }
    row.mean_cost = w.mean();
    row.p95_cost = w.P95();
    row.rate = static_cast<double>(w.count()) / window_s;
    ++ns.nonempty_windows;
    if (!ns.baseline_seeded) {
      ns.baseline = row.mean_cost;
      ns.baseline_seeded = true;
    }
    row.baseline = ns.baseline;
    if (ns.nonempty_windows <= params_.warmup_windows) {
      row.score_self = row.score_peer = row.score = 1.0;
      ns.baseline = params_.baseline_alpha * row.mean_cost +
                    (1.0 - params_.baseline_alpha) * ns.baseline;
    } else {
      row.score_self =
          ns.baseline > 0.0 ? row.mean_cost / ns.baseline : 1.0;
      row.score_peer =
          peer_median > 0.0 ? row.mean_cost / peer_median : 1.0;
      row.score = std::max(row.score_self, row.score_peer);
      if (row.score < params_.baseline_freeze_score) {
        ns.baseline = params_.baseline_alpha * row.mean_cost +
                      (1.0 - params_.baseline_alpha) * ns.baseline;
      }
    }
    ns.last_score = row.score;
    ns.max_score = std::max(ns.max_score, row.score);
    series_.push_back(row);
  }
}

double ExpectationTracker::StutterScore(int node) const {
  if (node < 0 || node >= nodes()) {
    return 1.0;
  }
  return per_node_[static_cast<size_t>(node)].last_score;
}

double ExpectationTracker::MaxScore(int node) const {
  if (node < 0 || node >= nodes()) {
    return 0.0;
  }
  return per_node_[static_cast<size_t>(node)].max_score;
}

double ExpectationTracker::BaselineCost(int node) const {
  if (node < 0 || node >= nodes()) {
    return 0.0;
  }
  return per_node_[static_cast<size_t>(node)].baseline;
}

std::vector<GraySpan> ExpectationTracker::GraySpans() const {
  std::vector<GraySpan> spans;
  for (int node = 0; node < nodes(); ++node) {
    bool open = false;
    GraySpan span;
    for (const ExpectationRow& row : series_) {
      if (row.node != node) {
        continue;
      }
      const bool hot =
          row.samples > 0 && row.score >= params_.score_threshold;
      if (hot) {
        if (!open) {
          open = true;
          span = GraySpan{node, row.window_start,
                          row.window_start + params_.window, row.score, 1};
        } else {
          span.end = row.window_start + params_.window;
          span.peak_score = std::max(span.peak_score, row.score);
          ++span.windows;
        }
      } else if (open) {
        spans.push_back(span);
        open = false;
      }
    }
    if (open) {
      spans.push_back(span);
    }
  }
  return spans;
}

std::string ExpectationTracker::SeriesJson() const {
  std::string out = "[";
  char buf[384];
  for (size_t i = 0; i < series_.size(); ++i) {
    const ExpectationRow& r = series_[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"t_ns\": %lld, \"node\": %d, \"n\": %llu, "
        "\"mean_cost\": %.6g, \"p95_cost\": %.6g, \"rolling_p50\": %.6g, "
        "\"rolling_p95\": %.6g, \"rolling_p99\": %.6g, \"rate\": %.6g, "
        "\"baseline\": %.6g, \"score_self\": %.4f, \"score_peer\": %.4f, "
        "\"score\": %.4f}",
        i == 0 ? "" : ",\n ", static_cast<long long>(r.window_start.nanos()),
        r.node, static_cast<unsigned long long>(r.samples), r.mean_cost,
        r.p95_cost, r.rolling_p50, r.rolling_p95, r.rolling_p99, r.rate,
        r.baseline, r.score_self, r.score_peer, r.score);
    out += buf;
  }
  out += "]";
  return out;
}

}  // namespace fst

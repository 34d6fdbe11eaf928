#include "src/obs/live/live_plane.h"

#include <cstdio>

namespace fst {

namespace {

LivePlaneParams Normalized(LivePlaneParams p) {
  p.expectation.window = p.window;
  return p;
}

}  // namespace

LivePlane::LivePlane(int nodes, LivePlaneParams params)
    : params_(Normalized(params)),
      expectation_(params_.enabled ? nodes : 0, params_.expectation),
      burn_(params_.burn) {}

void LivePlane::ObserveNode(int node, SimTime now, double units,
                            Duration latency) {
  if (!params_.enabled) {
    return;
  }
  expectation_.Observe(node, now, units, latency);
}

void LivePlane::Tick(SimTime now, OutcomeCounts cum) {
  if (!params_.enabled) {
    return;
  }
  expectation_.AdvanceTo(now);
  burn_.Tick(now, cum);
}

std::string LivePlane::Json() const {
  std::string out = "{\"enabled\": ";
  out += params_.enabled ? "true" : "false";
  out += ", \"window_ns\": ";
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%lld",
                static_cast<long long>(params_.window.nanos()));
  out += buf;
  out += ", \"expectation\": ";
  out += expectation_.SeriesJson();
  out += ", \"gray_spans\": [";
  const std::vector<GraySpan> spans = expectation_.GraySpans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const GraySpan& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"node\": %d, \"start_ns\": %lld, \"end_ns\": %lld, "
                  "\"peak_score\": %.4f, \"windows\": %d}",
                  i == 0 ? "" : ", ", s.node,
                  static_cast<long long>(s.start.nanos()),
                  static_cast<long long>(s.end.nanos()), s.peak_score,
                  s.windows);
    out += buf;
  }
  out += "], \"burn\": ";
  out += burn_.Json();
  out += "}";
  return out;
}

}  // namespace fst

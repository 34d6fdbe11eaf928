// Tests for the online telemetry plane (src/obs/live/): streaming
// sketch accuracy, window boundary semantics, expectation scoring, SLO
// burn-rate hysteresis, detector scorecards, and the end-to-end
// gray-stutter detection study (E25) plus the campaign bundle
// determinism pin.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chaos/campaign.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/fleet.h"
#include "src/core/policy.h"
#include "src/faults/injector.h"
#include "src/obs/correlator.h"
#include "src/obs/live/burn_rate.h"
#include "src/obs/live/expectation.h"
#include "src/obs/live/live_plane.h"
#include "src/obs/live/report.h"
#include "src/obs/live/scorecard.h"
#include "src/obs/live/window_stats.h"
#include "src/obs/recorder.h"
#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {
namespace {

SimTime At(double seconds) {
  return SimTime::Zero() + Duration::Seconds(seconds);
}

// ------------------------------------------------------------ QuantileSketch

// Exact nearest-rank quantile over a sample set, the reference the sketch
// is bounded against.
double ExactQuantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank < 1) {
    rank = 1;
  }
  if (rank > n) {
    rank = n;
  }
  return v[rank - 1];
}

TEST(QuantileSketchTest, DegenerateCounts) {
  QuantileSketch s;
  EXPECT_DOUBLE_EQ(s.ValueAtQuantile(0.5), 0.0);
  s.Add(12345.0);
  // n == 1 returns the sample exactly, not a bucket bound.
  EXPECT_DOUBLE_EQ(s.ValueAtQuantile(0.5), 12345.0);
  EXPECT_DOUBLE_EQ(s.min(), 12345.0);
  EXPECT_DOUBLE_EQ(s.max(), 12345.0);
}

// The load-bearing property: for values >= 2^sub_bucket_bits every
// quantile is overestimated by at most RelativeErrorBound() (1/32 at the
// default geometry) and never underestimated.
TEST(QuantileSketchTest, RelativeErrorBoundHolds) {
  QuantileSketch s;
  ASSERT_DOUBLE_EQ(s.RelativeErrorBound(), 1.0 / 32.0);
  std::vector<double> values;
  uint64_t x = 88172645463325252ull;  // deterministic xorshift stream
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Spread across four decades, all >= 32 so the relative bound applies.
    const double v = 32.0 + static_cast<double>(x % 1000000);
    values.push_back(v);
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 5000u);
  for (const double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    const double exact = ExactQuantile(values, q);
    const double est = s.ValueAtQuantile(q);
    EXPECT_GE(est, exact - 1e-9) << "q=" << q;
    EXPECT_LE(est, exact * (1.0 + s.RelativeErrorBound()) + 1e-9)
        << "q=" << q;
  }
}

TEST(QuantileSketchTest, SmallValuesAreExactToWithinOne) {
  QuantileSketch s;
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    const double v = static_cast<double>(i % 31);  // all below 2^5
    values.push_back(v);
    s.Add(v);
  }
  for (const double q : {0.25, 0.5, 0.9}) {
    EXPECT_NEAR(s.ValueAtQuantile(q), ExactQuantile(values, q), 1.0);
  }
}

// Merge must be exactly equivalent to having fed one sketch both streams:
// same geometry means the same buckets, so every statistic matches.
TEST(QuantileSketchTest, MergeMatchesCombinedStream) {
  QuantileSketch a, b, combined;
  for (int i = 0; i < 3000; ++i) {
    const double va = 32.0 + static_cast<double>((i * 37) % 90001);
    const double vb = 32.0 + static_cast<double>((i * 101 + 7) % 70001);
    a.Add(va);
    combined.Add(va);
    b.Add(vb);
    combined.Add(vb);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  EXPECT_EQ(a.distinct_buckets(), combined.distinct_buckets());
  for (const double q : {0.05, 0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(a.ValueAtQuantile(q), combined.ValueAtQuantile(q))
        << "q=" << q;
  }
}

TEST(QuantileSketchTest, MergeIgnoresMismatchedGeometry) {
  QuantileSketch a(5), b(4);
  a.Add(100.0);
  b.Add(200.0);
  a.Merge(b);  // incompatible buckets: must be a no-op, never UB
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
}

// --------------------------------------------------------- WindowedQuantiles

TEST(WindowedQuantilesTest, RollingMergesOpenAndKeptWindows) {
  WindowedQuantiles wq(Duration::Millis(100), 2);
  EXPECT_EQ(wq.LastClosed().count(), 0u);
  wq.Record(At(0.01), 100.0);
  wq.Record(At(0.11), 200.0);
  wq.Record(At(0.21), 300.0);
  wq.AdvanceTo(At(0.30));  // windows 0..2 closed; ring keeps 1 and 2
  EXPECT_EQ(wq.LastClosed().count(), 1u);
  EXPECT_DOUBLE_EQ(wq.LastClosed().max(), 300.0);
  wq.Record(At(0.31), 400.0);  // open window
  const QuantileSketch rolling = wq.Rolling();
  EXPECT_EQ(rolling.count(), 3u);  // 200, 300 (kept) + 400 (open); 100 aged out
  EXPECT_DOUBLE_EQ(rolling.min(), 200.0);
  EXPECT_DOUBLE_EQ(rolling.max(), 400.0);
}

// --------------------------------------------------------- ExpectationTracker

// Drives one window of identical observations on every node.
void FeedWindow(ExpectationTracker& t, int64_t window_index,
                const std::vector<double>& cost_per_node, int samples = 10) {
  const Duration w = t.params().window;
  const SimTime start = SimTime::Zero() + w * window_index;
  for (int n = 0; n < t.nodes(); ++n) {
    for (int k = 0; k < samples; ++k) {
      // units = 1, latency = cost seconds -> cost_per_node is seconds/unit.
      t.Observe(n, start + Duration::Micros(10 * (k + 1)), 1.0,
                Duration::Seconds(cost_per_node[static_cast<size_t>(n)]));
    }
  }
  t.AdvanceTo(SimTime::Zero() + w * (window_index + 1));
}

TEST(ExpectationTrackerTest, WarmupForcesScoreToOne) {
  ExpectationParams p;
  ExpectationTracker t(1, p);
  for (int64_t w = 0; w < p.warmup_windows; ++w) {
    FeedWindow(t, w, {0.001});
    EXPECT_DOUBLE_EQ(t.StutterScore(0), 1.0) << "window " << w;
  }
}

TEST(ExpectationTrackerTest, SelfDeviationScoresAgainstOwnBaseline) {
  ExpectationParams p;
  ExpectationTracker t(1, p);
  for (int64_t w = 0; w < 6; ++w) {
    FeedWindow(t, w, {0.001});
  }
  EXPECT_NEAR(t.StutterScore(0), 1.0, 1e-9);
  const double baseline_before = t.BaselineCost(0);
  EXPECT_NEAR(baseline_before, 0.001, 1e-12);
  // One window 30% over baseline: self ratio 1.3 (peer ratio is 1.0 with a
  // single node — its own mean is the median).
  FeedWindow(t, 6, {0.0013});
  EXPECT_NEAR(t.StutterScore(0), 1.3, 1e-6);
  EXPECT_NEAR(t.MaxScore(0), 1.3, 1e-6);
  // 1.3 >= baseline_freeze_score: the stutter must not become the new
  // normal, so the baseline is frozen.
  EXPECT_DOUBLE_EQ(t.BaselineCost(0), baseline_before);
}

TEST(ExpectationTrackerTest, PeerDeviationFlagsTheOddNodeOut) {
  ExpectationParams p;
  ExpectationTracker t(4, p);
  // Node 2 is 35% slower than its identical twins from the start. Its own
  // baseline sees nothing (self ratio 1.0); only the peer median does.
  for (int64_t w = 0; w < 8; ++w) {
    FeedWindow(t, w, {0.001, 0.001, 0.00135, 0.001});
  }
  EXPECT_NEAR(t.StutterScore(0), 1.0, 0.01);
  EXPECT_NEAR(t.StutterScore(2), 1.35, 0.01);
  const std::vector<GraySpan> spans = t.GraySpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].node, 2);
  // Warmup windows score 1.0, so the span starts at window warmup_windows
  // and runs through the last closed window.
  EXPECT_EQ(spans[0].windows, 8 - p.warmup_windows);
  EXPECT_NEAR(spans[0].peak_score, 1.35, 0.01);
  EXPECT_EQ(spans[0].start.nanos(),
            p.window.nanos() * p.warmup_windows);
  EXPECT_EQ(spans[0].end.nanos(), p.window.nanos() * 8);
}

TEST(ExpectationTrackerTest, EmptyWindowsScoreZeroAndSkipState) {
  ExpectationParams p;
  ExpectationTracker t(2, p);
  for (int64_t w = 0; w < 5; ++w) {
    FeedWindow(t, w, {0.001, 0.001});
  }
  const double score_before = t.StutterScore(0);
  // Four silent windows: rows exist (scored 0) but last_score holds.
  t.AdvanceTo(SimTime::Zero() + p.window * 9);
  EXPECT_DOUBLE_EQ(t.StutterScore(0), score_before);
  int empty_rows = 0;
  for (const ExpectationRow& r : t.series()) {
    if (r.samples == 0) {
      ++empty_rows;
      EXPECT_DOUBLE_EQ(r.score, 0.0);
    }
  }
  EXPECT_EQ(empty_rows, 2 * 4);
  EXPECT_TRUE(t.GraySpans().empty());
}

// ------------------------------------------------------------ SloBurnAlerter

BurnRateParams TestBurnParams() {
  BurnRateParams p;
  p.slo_target = 0.95;
  p.fast_window = Duration::Seconds(1.0);
  p.slow_window = Duration::Seconds(2.0);
  p.long_window = Duration::Seconds(10.0);
  p.raise_burn = 2.0;
  p.clear_burn = 1.0;
  p.clear_ticks = 4;
  return p;
}

TEST(SloBurnAlerterTest, RaisesOnFastAndSlowThenClearsWithHysteresis) {
  SloBurnAlerter alerter(TestBurnParams());
  OutcomeCounts cum;
  int tick = 0;
  auto advance = [&](int64_t good, int64_t bad) {
    ++tick;
    cum.good += good;
    cum.bad += bad;
    alerter.Tick(At(0.25 * tick), cum);
  };
  for (int i = 0; i < 8; ++i) {
    advance(100, 0);  // healthy through t=2.0
  }
  EXPECT_FALSE(alerter.alerting());
  // Outage: 50% bad. The fast window goes hot first; the alert waits for
  // the slow window to agree (one bad blip must not page).
  advance(50, 50);  // t=2.25: fast 2.5 but slow only 1.25 -> no alert yet
  EXPECT_FALSE(alerter.alerting());
  advance(50, 50);  // t=2.50: slow reaches 2.5 -> raise
  EXPECT_TRUE(alerter.alerting());
  EXPECT_EQ(alerter.raised_count(), 1);
  for (int i = 0; i < 6; ++i) {
    advance(50, 50);  // outage continues through t=4.0
  }
  EXPECT_EQ(alerter.raised_count(), 1);  // no re-raise while alerting
  // Recovery. The fast window stays hot until the bad ticks age out
  // (t=5.0), then four consecutive calm ticks are required to clear.
  for (int i = 0; i < 6; ++i) {
    advance(100, 0);  // through t=5.50: at most 3 calm ticks so far
  }
  EXPECT_TRUE(alerter.alerting());
  advance(100, 0);  // t=5.75: fourth calm tick -> clear
  EXPECT_FALSE(alerter.alerting());
  EXPECT_EQ(alerter.cleared_count(), 1);
  ASSERT_EQ(alerter.events().size(), 2u);
  EXPECT_TRUE(alerter.events()[0].raised);
  EXPECT_FALSE(alerter.events()[1].raised);
  EXPECT_LT(alerter.events()[0].when.nanos(),
            alerter.events()[1].when.nanos());
  const std::string json = alerter.Json();
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\""), std::string::npos);
}

TEST(SloBurnAlerterTest, HotTickResetsTheCalmRun) {
  SloBurnAlerter alerter(TestBurnParams());
  OutcomeCounts cum;
  int tick = 0;
  auto advance = [&](int64_t good, int64_t bad) {
    ++tick;
    cum.good += good;
    cum.bad += bad;
    alerter.Tick(At(0.25 * tick), cum);
  };
  for (int i = 0; i < 8; ++i) {
    advance(100, 0);
  }
  for (int i = 0; i < 8; ++i) {
    advance(50, 50);
  }
  ASSERT_TRUE(alerter.alerting());
  for (int i = 0; i < 6; ++i) {
    advance(100, 0);  // flushes the fast window, then 2 calm ticks
  }
  advance(0, 100);  // relapse: calm run resets, alert must hold
  EXPECT_TRUE(alerter.alerting());
  EXPECT_EQ(alerter.cleared_count(), 0);
  EXPECT_EQ(alerter.raised_count(), 1);  // held, not re-raised
  for (int i = 0; i < 8; ++i) {
    advance(100, 0);  // flush the relapse + 4 calm ticks
  }
  EXPECT_FALSE(alerter.alerting());
  EXPECT_EQ(alerter.cleared_count(), 1);
}

// ----------------------------------------------------------------- Scorecard

TEST(ScorecardTest, JoinsCorrelatorGroundTruthWithGraySpans) {
  EventRecorder rec;
  const uint16_t node0 = rec.Intern("node0");
  const uint16_t node1 = rec.Intern("node1");
  const uint16_t node2 = rec.Intern("node2");
  // node0: a loud fault (3x), detected and reacted to. MTTD 1 s, MTTR 0.5 s.
  rec.FaultActivate(At(10.0), node0, rec.Intern("static-slowdown"), 3.0,
                    false);
  rec.StateTransition(At(11.0), node0, rec.Intern("Healthy->Stuttering"), 1,
                      0.8);
  rec.PolicyAction(At(11.5), node0, rec.Intern("reweight"), 0.33);
  // node1: a gray fault (1.35x, below the 1.5 enter_deficit) with no
  // transition inside [10, 20] -> legacy-missed.
  rec.FaultActivate(At(10.0), node1, rec.Intern("step-change"), 1.35, false);
  rec.FaultDeactivate(At(20.0), node1, rec.Intern("step-change"));
  // node2: a transition with no fault behind it -> false positive.
  rec.StateTransition(At(5.0), node2, rec.Intern("Healthy->Stuttering"), 1,
                      0.6);

  const CorrelationReport rep =
      CorrelateFaultTimeline(rec.Events(), rec.components());
  std::vector<GraySpan> spans;
  GraySpan hit;
  hit.node = 1;
  hit.start = At(12.0);
  hit.end = At(18.0);
  hit.peak_score = 1.32;
  hit.windows = 24;
  spans.push_back(hit);
  GraySpan other = hit;
  other.node = 3;  // wrong node: must not count
  spans.push_back(other);

  const DetectorScorecard card = BuildScorecard(rep, spans, At(60.0));
  EXPECT_EQ(card.faults, 2);
  EXPECT_EQ(card.detected, 1);
  EXPECT_EQ(card.missed, 1);
  EXPECT_EQ(card.false_positives, 1);
  EXPECT_EQ(card.reacted, 1);
  EXPECT_DOUBLE_EQ(card.precision(), 0.5);
  EXPECT_DOUBLE_EQ(card.recall(), 0.5);
  EXPECT_EQ(card.gray_faults, 1);
  EXPECT_EQ(card.gray_legacy_missed, 1);
  EXPECT_EQ(card.gray_live_scored, 1);
  ASSERT_EQ(card.mttd_ms.count(), 1u);
  EXPECT_NEAR(card.mttd_ms.mean(), 1000.0, 1e-6);
  ASSERT_EQ(card.mttr_ms.count(), 1u);
  EXPECT_NEAR(card.mttr_ms.mean(), 500.0, 1e-6);
  ASSERT_EQ(card.by_kind.count("step-change"), 1u);
  EXPECT_EQ(card.by_kind.at("step-change").faults, 1);
  EXPECT_EQ(card.by_kind.at("step-change").detected, 0);
  const std::string json = card.ToJson();
  EXPECT_NE(json.find("\"gray_legacy_missed\": 1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"by_kind\""), std::string::npos);
}

TEST(ScorecardTest, DetectionAfterClearDoesNotCoverTheGrayFault) {
  EventRecorder rec;
  const uint16_t node0 = rec.Intern("node0");
  rec.FaultActivate(At(10.0), node0, rec.Intern("step-change"), 1.4, false);
  rec.FaultDeactivate(At(15.0), node0, rec.Intern("step-change"));
  // The detector fires only after the fault ended: too late to count as
  // covering it.
  rec.StateTransition(At(20.0), node0, rec.Intern("Healthy->Stuttering"), 1,
                      0.6);
  const CorrelationReport rep =
      CorrelateFaultTimeline(rec.Events(), rec.components());
  const DetectorScorecard card = BuildScorecard(rep, {}, At(60.0));
  EXPECT_EQ(card.gray_faults, 1);
  EXPECT_EQ(card.gray_legacy_missed, 1);
  EXPECT_EQ(card.gray_live_scored, 0);  // no spans supplied
}

TEST(ScorecardTest, MergeAddsCountsAndSketches) {
  DetectorScorecard a, b;
  a.faults = 3;
  a.detected = 2;
  a.missed = 1;
  a.gray_faults = 1;
  a.mttd_ms.Add(100.0);
  a.by_kind["crash-restart"] = {2, 2};
  b.faults = 2;
  b.detected = 1;
  b.missed = 1;
  b.false_positives = 4;
  b.mttd_ms.Add(300.0);
  b.by_kind["crash-restart"] = {1, 1};
  b.by_kind["step-change"] = {1, 0};
  a.Merge(b);
  EXPECT_EQ(a.faults, 5);
  EXPECT_EQ(a.detected, 3);
  EXPECT_EQ(a.missed, 2);
  EXPECT_EQ(a.false_positives, 4);
  EXPECT_EQ(a.gray_faults, 1);
  EXPECT_EQ(a.mttd_ms.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mttd_ms.sum(), 400.0);
  EXPECT_EQ(a.by_kind.at("crash-restart").faults, 3);
  EXPECT_EQ(a.by_kind.at("step-change").faults, 1);
  EXPECT_DOUBLE_EQ(a.precision(), 3.0 / 7.0);
  EXPECT_DOUBLE_EQ(a.recall(), 0.6);
}

TEST(ScorecardTest, EmptyCardReportsPerfectScores) {
  const DetectorScorecard card;
  EXPECT_DOUBLE_EQ(card.precision(), 1.0);
  EXPECT_DOUBLE_EQ(card.recall(), 1.0);
}

// ----------------------------------------------------------------- LivePlane

TEST(LivePlaneTest, DisabledPlaneIsInert) {
  LivePlane plane(4, LivePlaneParams{});
  ASSERT_FALSE(plane.enabled());
  plane.ObserveNode(0, At(0.1), 1.0, Duration::Millis(1));
  OutcomeCounts cum;
  cum.good = 100;
  plane.Tick(At(1.0), cum);
  EXPECT_TRUE(plane.expectation().series().empty());
  EXPECT_TRUE(plane.burn().series().empty());
  EXPECT_NE(plane.Json().find("\"enabled\": false"), std::string::npos)
      << plane.Json();
}

TEST(LivePlaneTest, KvServiceAllocatesNoPlaneByDefault) {
  Simulator sim(1);
  KvService svc(sim, ClusterParams{},
                std::make_unique<IgnoreStutterPolicy>());
  EXPECT_EQ(svc.live(), nullptr);
}

// -------------------------------------------------------------- SloSnapshot

TEST(SloSnapshotTest, SnapshotMatchesCountersAndAttemptSplit) {
  SloTracker slo(Duration::Millis(100));
  for (int i = 0; i < 6; ++i) {
    slo.RecordArrival();
  }
  slo.RecordAck(Duration::Millis(10));      // goodput, 1 attempt
  slo.RecordAck(Duration::Millis(10), 3);   // goodput, 3 attempts
  slo.RecordAck(Duration::Millis(500), 2);  // late
  slo.RecordError(4);
  slo.RecordShed(2);
  const SloSnapshot s = slo.Snapshot();
  EXPECT_EQ(s.arrivals, 6);
  EXPECT_EQ(s.acks, 3);
  EXPECT_EQ(s.goodput, 2);
  EXPECT_EQ(s.late, 1);
  EXPECT_EQ(s.shed, 1);
  EXPECT_EQ(s.errors, 1);
  // Every service attempt lands in exactly one per-outcome bucket.
  EXPECT_EQ(s.ack_attempts, 6);
  EXPECT_EQ(s.error_attempts, 4);
  EXPECT_EQ(s.shed_attempts, 2);
  EXPECT_EQ(s.bad(), 3);       // late + shed + errors
  EXPECT_EQ(s.terminal(), 5);  // acks + shed + errors
  EXPECT_GT(s.p50_ms, 0.0);
  const std::string json = slo.ReportJson(Duration::Seconds(1.0));
  EXPECT_NE(json.find("\"ack_attempts\": 6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shed_attempts\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"error_attempts\": 4"), std::string::npos) << json;
}

// ------------------------------------------------------------------- Report

TEST(ReportTest, BundleStampsTheLiteralSchemaVersion) {
  const std::string bundle =
      BundleJson({{"a", "{\"x\": 1}"}, {"b", "[2, 3]"}});
  EXPECT_EQ(bundle.find("{\"schema_version\": "), 0u) << bundle;
  EXPECT_NE(bundle.find("\"a\": {\"x\": 1}"), std::string::npos);
  EXPECT_NE(bundle.find("\"b\": [2, 3]"), std::string::npos);
  // The bundle must never record the sweep thread count: byte identity
  // across thread counts is the contract CI pins.
  EXPECT_EQ(bundle.find("sweep_threads"), std::string::npos);
}

TEST(ReportTest, HtmlEmbedsTheBundleWithoutScriptBreakouts) {
  const std::string html =
      HtmlReport("t", "{\"schema_version\": 2, \"s\": \"</script>\"}");
  EXPECT_NE(html.find("type=\"application/json\""), std::string::npos);
  // The raw close tag must not survive inside the embedded JSON.
  EXPECT_EQ(html.find("\"</script>\""), std::string::npos);
  EXPECT_NE(html.find("\\u003c/script>"), std::string::npos);
}

// ------------------------------------------------- E25: gray-stutter study

// The paper's core observability claim, end to end: a 1.35x slowdown sits
// below the hysteresis detector's enter_deficit (1.5), so the legacy path
// never transitions — but the expectation tracker scores it and the
// scorecard books it as a gray fault the live plane caught.
TEST(GrayStutterStudyTest, SubThresholdStutterIsScoredNotDetected) {
  Simulator sim(7);
  FleetParams fp;
  fp.arrivals_per_sec = 300.0;
  fp.run_for = Duration::Seconds(12.0);
  ColumnarFleet fleet(sim, fp);

  ClusterParams cp;
  cp.live.enabled = true;
  EventRecorder recorder;
  KvService svc(sim, cp, std::make_unique<ProportionalSharePolicy>(),
                &recorder);
  FaultInjector injector(sim);
  injector.set_recorder(&recorder);
  // Gray stutter on node1: 1.35x from t=5 to t=10, then back to nominal.
  injector.InjectStepChange(*svc.node(1),
                            {{At(5.0), 1.35}, {At(10.0), 1.0}});

  const SimTime end_of_run = At(13.0);
  svc.StartTelemetry(end_of_run);
  fleet.Run(svc, [](const FleetResult&) {});
  sim.Run();

  ASSERT_NE(svc.live(), nullptr);
  const ExpectationTracker& exp = svc.live()->expectation();
  // The live plane saw it: node1's score cleared the gray threshold...
  EXPECT_GE(exp.MaxScore(1), 1.2);
  const std::vector<GraySpan> spans = exp.GraySpans();
  ASSERT_FALSE(spans.empty());
  bool on_node1 = false;
  for (const GraySpan& s : spans) {
    on_node1 = on_node1 || s.node == 1;
  }
  EXPECT_TRUE(on_node1);
  // ...while the legacy detector never left Healthy (1.35 < 1.5).
  const CorrelationReport rep =
      CorrelateFaultTimeline(recorder.Events(), recorder.components());
  const DetectorScorecard card =
      BuildScorecard(rep, spans, end_of_run);
  EXPECT_EQ(card.faults, 1);
  EXPECT_EQ(card.detected, 0);
  EXPECT_EQ(card.gray_faults, 1);
  EXPECT_EQ(card.gray_legacy_missed, 1);
  EXPECT_GE(card.gray_live_scored, 1);
  // Healthy nodes must not be dragged over the threshold by the load the
  // stutterer sheds onto them.
  EXPECT_LT(exp.MaxScore(0), 1.2);
}

// ------------------------------------------- Campaign bundle determinism

CampaignParams SmallTelemetryCampaign() {
  CampaignParams p;
  p.seeds = 4;
  p.run_for = Duration::Seconds(10.0);
  p.settle = Duration::Seconds(6.0);
  p.telemetry = true;
  p.scenario.gray_faults = 2;
  return p;
}

TEST(TelemetryCampaignTest, BundleIsByteIdenticalAcrossThreadCounts) {
  CampaignParams p1 = SmallTelemetryCampaign();
  p1.threads = 1;
  CampaignParams p4 = SmallTelemetryCampaign();
  p4.threads = 4;
  const CampaignResult r1 = RunCampaign(p1);
  const CampaignResult r4 = RunCampaign(p4);
  ASSERT_EQ(r1.outcomes.size(), 4u);
  EXPECT_EQ(r1.ReportJson(), r4.ReportJson());
  const std::string b1 = r1.UnifiedBundleJson();
  EXPECT_EQ(b1, r4.UnifiedBundleJson());
  EXPECT_EQ(b1.find("{\"schema_version\": "), 0u);
  EXPECT_NE(b1.find("\"exemplar_live\""), std::string::npos);
  EXPECT_NE(b1.find("\"scorecard\""), std::string::npos);
  EXPECT_EQ(b1.find("sweep_threads"), std::string::npos);

  // The merged scorecard is the grid-ordered fold of the per-seed cards.
  int faults = 0, gray = 0;
  for (const SeedOutcome& o : r1.outcomes) {
    ASSERT_TRUE(o.telemetry);
    faults += o.scorecard.faults;
    gray += o.scorecard.gray_faults;
  }
  EXPECT_EQ(r1.scorecard.faults, faults);
  EXPECT_EQ(r1.scorecard.gray_faults, gray);
  EXPECT_GT(faults, 0);
  EXPECT_GT(gray, 0);
  EXPECT_EQ(r1.scorecard.detected + r1.scorecard.missed, faults);
}

TEST(TelemetryCampaignTest, TelemetrySeedIsSelfDeterministic) {
  const CampaignParams p = SmallTelemetryCampaign();
  const SeedOutcome a = RunChaosSeed(p, 3);
  const SeedOutcome b = RunChaosSeed(p, 3);
  EXPECT_EQ(a.fire_digest, b.fire_digest);
  EXPECT_EQ(a.live_json, b.live_json);
  EXPECT_EQ(a.slo_json, b.slo_json);
  EXPECT_EQ(a.scorecard.ToJson(), b.scorecard.ToJson());
  EXPECT_EQ(a.gray_spans, b.gray_spans);
}

// ------------------------------------------- plane vs a direct tracker

// The plane must be indistinguishable from a tracker fed directly:
// identical series export, with ticks between bursts of observations.
TEST(LivePlaneTest, BufferedIngestionMatchesDirectTracker) {
  LivePlaneParams params;
  params.enabled = true;
  params.window = Duration::Millis(100);
  constexpr int kNodes = 4;
  LivePlane plane(kNodes, params);

  ExpectationParams ep = params.expectation;
  ep.window = params.window;
  ExpectationTracker direct(kNodes, ep);

  Rng rng(77);
  SimTime now = SimTime::Zero();
  OutcomeCounts cum;
  for (int tick = 0; tick < 40; ++tick) {
    const int burst = static_cast<int>(rng.UniformInt(0, 50));
    for (int i = 0; i < burst; ++i) {
      now = now + Duration::Micros(rng.UniformInt(100, 2000));
      const int node = static_cast<int>(rng.UniformInt(0, kNodes - 1));
      const double units = rng.UniformDouble(0.5, 2.0);
      const Duration lat = Duration::Micros(rng.UniformInt(200, 30'000));
      plane.ObserveNode(node, now, units, lat);
      direct.Observe(node, now, units, lat);
    }
    const SimTime tick_at = SimTime::Zero() + Duration::Millis(100) * (tick + 1.0);
    now = tick_at;
    plane.Tick(tick_at, cum);
    direct.AdvanceTo(tick_at);
  }
  EXPECT_EQ(plane.expectation().SeriesJson(), direct.SeriesJson());
}

}  // namespace
}  // namespace fst

// Tests for the observability layer: event interning, the ring-buffer
// recorder, the fault-timeline correlator, the exporters, and end-to-end
// instrumentation of a live device.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/scenario.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/fleet.h"
#include "src/core/policy.h"
#include "src/devices/disk.h"
#include "src/faults/injector.h"
#include "src/obs/correlator.h"
#include "src/obs/event.h"
#include "src/obs/export.h"
#include "src/obs/live/scorecard.h"
#include "src/obs/profiler.h"
#include "src/obs/recorder.h"
#include "src/simcore/simulator.h"

namespace fst {
namespace {

SimTime At(double seconds) { return SimTime::Zero() + Duration::Seconds(seconds); }

// Minimal JSON well-formedness check: objects, arrays, strings and literals
// by the grammar, numbers only by their character set. True iff `text` is
// exactly one value with optional surrounding space.
class JsonChecker {
 public:
  static bool Valid(const std::string& text) {
    JsonChecker c(text);
    return c.Value() && (c.SkipSpace(), c.i_ == text.size());
  }

 private:
  explicit JsonChecker(const std::string& t) : t_(t) {}

  void SkipSpace() {
    while (i_ < t_.size() && std::isspace(static_cast<unsigned char>(t_[i_]))) {
      ++i_;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (i_ < t_.size() && t_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    const std::string w(word);
    if (t_.compare(i_, w.size(), w) != 0) {
      return false;
    }
    i_ += w.size();
    return true;
  }
  bool String() {
    if (!Eat('"')) {
      return false;
    }
    while (i_ < t_.size() && t_[i_] != '"') {
      if (static_cast<unsigned char>(t_[i_]) < 0x20) {
        return false;
      }
      i_ += t_[i_] == '\\' ? 2 : 1;
    }
    return i_++ < t_.size();
  }
  bool Number() {
    const size_t start = i_;
    while (i_ < t_.size() && std::strchr("+-.0123456789eE", t_[i_]) != nullptr) {
      ++i_;
    }
    return i_ > start;
  }
  // Comma-separated `item`s up to `close`, the opener already consumed.
  template <typename Item>
  bool Sequence(char close, Item item) {
    if (Eat(close)) {
      return true;
    }
    do {
      if (!item()) {
        return false;
      }
    } while (Eat(','));
    return Eat(close);
  }
  bool Value() {
    SkipSpace();
    if (i_ >= t_.size()) {
      return false;
    }
    switch (t_[i_]) {
      case '{':
        ++i_;
        return Sequence('}', [this] { return String() && Eat(':') && Value(); });
      case '[':
        ++i_;
        return Sequence(']', [this] { return Value(); });
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const std::string& t_;
  size_t i_ = 0;
};

// ---------------------------------------------------------------- table

TEST(ComponentTableTest, InternRoundTrips) {
  ComponentTable table;
  const uint16_t a = table.Intern("disk0");
  const uint16_t b = table.Intern("disk1");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("disk0"), a);
  EXPECT_EQ(table.Name(a), "disk0");
  EXPECT_EQ(table.Name(b), "disk1");
  EXPECT_EQ(table.Find("disk1"), static_cast<int>(b));
  EXPECT_EQ(table.Find("never-interned"), -1);
}

TEST(ComponentTableTest, IdZeroIsEmptyAndUnknownIdsRenderQuestionMark) {
  ComponentTable table;
  EXPECT_EQ(table.Name(0), "");
  EXPECT_EQ(table.Intern(""), 0);
  EXPECT_EQ(table.Name(999), "?");
}

// ---------------------------------------------------------------- recorder

TEST(EventRecorderTest, DisabledRecorderIsANoOp) {
  EventRecorder rec(16);
  rec.set_enabled(false);
  EXPECT_FALSE(rec.request_spans());  // producers skip spans too
  rec.Mark(At(1.0), rec.Intern("c"), rec.Intern("m"), 1.0);
  rec.RequestEnqueue(At(2.0), 1, rec.NextRequestId(), 0, 1.0);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_TRUE(rec.Events().empty());
}

TEST(EventRecorderTest, RingOverwritesOldestAndCountsDropped) {
  EventRecorder rec(4);
  const uint16_t c = rec.Intern("c");
  for (int i = 0; i < 10; ++i) {
    rec.Mark(At(static_cast<double>(i)), c, 0, static_cast<double>(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto events = rec.Events();
  ASSERT_EQ(events.size(), 4u);
  // The flight-recorder keeps the most recent window, oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[i].a, static_cast<double>(6 + i));
  }
}

TEST(EventRecorderTest, EventsSnapshotSortsByTimestamp) {
  EventRecorder rec(16);
  const uint16_t c = rec.Intern("injector");
  // A fault scheduled for the future is recorded before earlier events.
  rec.FaultActivate(At(10.0), c, rec.Intern("step"), 3.0, false);
  rec.Mark(At(1.0), c, 0, 0.0);
  rec.Mark(At(5.0), c, 0, 0.0);
  const auto events = rec.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].when.nanos(), At(1.0).nanos());
  EXPECT_EQ(events[1].when.nanos(), At(5.0).nanos());
  EXPECT_EQ(events[2].when.nanos(), At(10.0).nanos());
}

TEST(EventRecorderTest, RequestIdsAreMonotonic) {
  EventRecorder rec(16);
  const uint64_t a = rec.NextRequestId();
  const uint64_t b = rec.NextRequestId();
  EXPECT_LT(a, b);
}

// Control-only: request spans cost nothing and leave no trace; every
// control kind still lands, and the exporters still emit valid files.
TEST(EventRecorderTest, ControlOnlyRecorderDropsRequestSpans) {
  EventRecorder rec(64);
  EXPECT_TRUE(rec.request_spans());  // default: record everything
  rec.set_request_spans(false);
  EXPECT_TRUE(rec.enabled());
  EXPECT_FALSE(rec.request_spans());
  const uint16_t disk0 = rec.Intern("disk0");
  const uint64_t id = rec.NextRequestId();
  rec.RequestEnqueue(At(1.0), disk0, id, 0, 1.0);
  rec.RequestStart(At(1.1), disk0, id, 0, Duration::Seconds(0.1));
  rec.RequestComplete(At(1.3), disk0, id, 0, Duration::Seconds(0.1),
                      Duration::Seconds(0.2));
  EXPECT_EQ(rec.total_recorded(), 0u);

  rec.FaultActivate(At(2.0), disk0, rec.Intern("step"), 3.0, false);
  rec.StateTransition(At(3.0), disk0, rec.Intern("Healthy->Stuttering"), 1, 0.5);
  rec.PolicyAction(At(3.5), disk0, rec.Intern("eject"), 0.0);
  rec.FaultDeactivate(At(4.0), disk0, rec.Intern("step"));
  rec.CounterSample(At(4.5), disk0, rec.Intern("depth"), 2.0);
  rec.Mark(At(5.0), disk0, rec.Intern("end"), 1.0);
  EXPECT_EQ(rec.total_recorded(), 6u);
  EXPECT_EQ(rec.dropped(), 0u);
  for (const TraceEvent& e : rec.Events()) {
    EXPECT_NE(e.kind, EventKind::kRequestEnqueue);
    EXPECT_NE(e.kind, EventKind::kRequestStart);
    EXPECT_NE(e.kind, EventKind::kRequestComplete);
  }

  const CorrelationReport report =
      CorrelateFaultTimeline(rec.Events(), rec.components());
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_TRUE(report.faults[0].detected);
  EXPECT_TRUE(report.faults[0].reacted);
  EXPECT_TRUE(report.faults[0].cleared);

  const std::string perfetto = PerfettoTraceJson(rec.Events(), rec.components());
  EXPECT_TRUE(JsonChecker::Valid(perfetto)) << perfetto;
  EXPECT_FALSE(JsonChecker::Valid(perfetto.substr(0, perfetto.size() - 1)));
  EXPECT_EQ(perfetto.find("\"ph\":\"X\""), std::string::npos);  // no slices
  EXPECT_NE(perfetto.find("\"ph\":\"i\""), std::string::npos);  // fault instant
  const std::string jsonl = EventsJsonl(rec.Events(), rec.components());
  std::istringstream in(jsonl);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(JsonChecker::Valid(line)) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 7);  // header + 6 events
}

TEST(EventRecorderTest, ClearEmptiesTheRing) {
  EventRecorder rec(8);
  rec.Mark(At(1.0), rec.Intern("c"), 0, 1.0);
  ASSERT_EQ(rec.size(), 1u);
  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(rec.Events().empty());
}

// ---------------------------------------------------------------- correlator

// Hand-built timeline: fault on disk0 at t=10, detector flags disk0 at
// t=12.5 (detection latency 2.5 s), policy reacts at t=13 (reaction 0.5 s).
TEST(CorrelatorTest, DetectionAndReactionLatencyMath) {
  EventRecorder rec;
  const uint16_t disk0 = rec.Intern("disk0");
  rec.FaultActivate(At(10.0), disk0, rec.Intern("static-slowdown"), 3.0, false);
  rec.StateTransition(At(12.5), disk0, rec.Intern("Healthy->Stuttering"),
                      /*to_state=*/1, /*deficit=*/0.6);
  rec.PolicyAction(At(13.0), disk0, rec.Intern("reweight"), 0.33);

  const auto report = CorrelateFaultTimeline(rec.Events(), rec.components());
  ASSERT_EQ(report.faults.size(), 1u);
  const FaultRecord& f = report.faults[0];
  EXPECT_EQ(f.component, "disk0");
  EXPECT_EQ(f.kind, "static-slowdown");
  EXPECT_DOUBLE_EQ(f.magnitude, 3.0);
  ASSERT_TRUE(f.detected);
  EXPECT_NEAR(f.detection_latency.ToSeconds(), 2.5, 1e-9);
  EXPECT_EQ(f.detected_state, 1);
  ASSERT_TRUE(f.reacted);
  EXPECT_NEAR(f.reaction_latency.ToSeconds(), 0.5, 1e-9);
  EXPECT_EQ(f.reaction, "reweight");
  EXPECT_EQ(report.detected_count, 1);
  EXPECT_EQ(report.missed, 0);
  EXPECT_EQ(report.false_positives, 0);
  EXPECT_NEAR(report.mean_detection_latency_s, 2.5, 1e-9);
  EXPECT_NEAR(report.mean_reaction_latency_s, 0.5, 1e-9);
}

TEST(CorrelatorTest, CountsMissedFaultsAndFalsePositives) {
  EventRecorder rec;
  const uint16_t disk0 = rec.Intern("disk0");
  const uint16_t disk1 = rec.Intern("disk1");
  const uint16_t disk2 = rec.Intern("disk2");
  // disk0: fault that is never detected -> missed.
  rec.FaultActivate(At(5.0), disk0, rec.Intern("jitter"), 1.5, false);
  // disk1: transition with no fault ever injected -> false positive.
  rec.StateTransition(At(6.0), disk1, rec.Intern("Healthy->Stuttering"), 1, 0.4);
  // disk2: transition BEFORE the fault activates -> also a false positive.
  rec.StateTransition(At(7.0), disk2, rec.Intern("Healthy->Stuttering"), 1, 0.4);
  rec.FaultActivate(At(8.0), disk2, rec.Intern("step"), 2.0, false);

  const auto report = CorrelateFaultTimeline(rec.Events(), rec.components());
  EXPECT_EQ(report.faults.size(), 2u);
  EXPECT_EQ(report.detected_count, 0);
  EXPECT_EQ(report.missed, 2);
  EXPECT_EQ(report.false_positives, 2);
}

TEST(CorrelatorTest, BackToHealthyTransitionsAreNotDetections) {
  EventRecorder rec;
  const uint16_t disk0 = rec.Intern("disk0");
  rec.FaultActivate(At(1.0), disk0, rec.Intern("step"), 2.0, false);
  // to_state 0 = Healthy; recovering must not count as detecting.
  rec.StateTransition(At(2.0), disk0, rec.Intern("Stuttering->Healthy"), 0, 0.0);
  const auto report = CorrelateFaultTimeline(rec.Events(), rec.components());
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_FALSE(report.faults[0].detected);
  EXPECT_EQ(report.missed, 1);
  EXPECT_EQ(report.false_positives, 0);
}

TEST(CorrelatorTest, TransitionsPreferActiveClassMatchedFaults) {
  EventRecorder rec;
  const uint16_t node0 = rec.Intern("node0");
  // A long-lived gray performance fault, then a crash on the same node.
  // The kFailed transition the crash causes must be attributed to the
  // crash (active + correctness), not stolen by the earlier stutter; the
  // later Stuttering transition then matches the performance fault.
  rec.FaultActivate(At(1.0), node0, rec.Intern("step-change"), 1.3, false);
  rec.FaultActivate(At(10.0), node0, rec.Intern("crash-restart"), 2.0, true);
  rec.StateTransition(At(11.0), node0, rec.Intern("Healthy->Failed"), 2, 1.0);
  rec.FaultDeactivate(At(12.0), node0, rec.Intern("crash-restart"));
  rec.StateTransition(At(13.0), node0, rec.Intern("Healthy->Stuttering"), 1,
                      0.4);
  const auto report = CorrelateFaultTimeline(rec.Events(), rec.components());
  ASSERT_EQ(report.faults.size(), 2u);
  const FaultRecord& gray = report.faults[0];
  const FaultRecord& crash = report.faults[1];
  ASSERT_TRUE(crash.detected);
  EXPECT_EQ(crash.detected_state, 2);
  EXPECT_NEAR(crash.detection_latency.ToSeconds(), 1.0, 1e-9);
  ASSERT_TRUE(gray.detected);
  EXPECT_EQ(gray.detected_state, 1);
  EXPECT_NEAR(gray.detection_latency.ToSeconds(), 12.0, 1e-9);
  EXPECT_EQ(report.false_positives, 0);
}

TEST(CorrelatorTest, AliasJoinsFaultDeviceToDetectorComponent) {
  EventRecorder rec;
  const uint16_t disk0 = rec.Intern("disk0");
  const uint16_t pair0 = rec.Intern("pair0");
  rec.FaultActivate(At(10.0), disk0, rec.Intern("static-slowdown"), 3.0, false);
  rec.StateTransition(At(11.0), pair0, rec.Intern("Healthy->Stuttering"), 1, 0.5);
  CorrelatorOptions options;
  options.alias["disk0"] = "pair0";
  const auto report =
      CorrelateFaultTimeline(rec.Events(), rec.components(), options);
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_EQ(report.faults[0].component, "pair0");
  EXPECT_EQ(report.faults[0].device, "disk0");
  ASSERT_TRUE(report.faults[0].detected);
  EXPECT_NEAR(report.faults[0].detection_latency.ToSeconds(), 1.0, 1e-9);
  EXPECT_EQ(report.false_positives, 0);
}

TEST(CorrelatorTest, NonePolicyActionsAreObservationsNotReactions) {
  EventRecorder rec;
  const uint16_t disk0 = rec.Intern("disk0");
  rec.FaultActivate(At(1.0), disk0, rec.Intern("step"), 2.0, false);
  rec.StateTransition(At(2.0), disk0, rec.Intern("Healthy->Stuttering"), 1, 0.5);
  rec.PolicyAction(At(3.0), disk0, rec.Intern("none"), 0.0);
  const auto report = CorrelateFaultTimeline(rec.Events(), rec.components());
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_TRUE(report.faults[0].detected);
  EXPECT_FALSE(report.faults[0].reacted);
}

TEST(CorrelatorTest, ReportJsonAndSummaryAreWellFormed) {
  EventRecorder rec;
  const uint16_t disk0 = rec.Intern("disk0");
  rec.FaultActivate(At(10.0), disk0, rec.Intern("step"), 3.0, false);
  rec.StateTransition(At(12.0), disk0, rec.Intern("Healthy->Stuttering"), 1, 0.5);
  const auto report = CorrelateFaultTimeline(rec.Events(), rec.components());
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"detected\":1"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"step\""), std::string::npos);
  EXPECT_NE(report.Summary().find("disk0"), std::string::npos);
}

// ---------------------------------------------------------------- export

TEST(ExportTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(ExportTest, JsonNumberEmitsNullForNonFinite) {
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_NE(JsonNumber(1.5).find("1.5"), std::string::npos);
}

TEST(ExportTest, PerfettoTraceHasSlicesCountersAndInstants) {
  EventRecorder rec;
  const uint16_t disk0 = rec.Intern("disk0");
  const uint64_t id = rec.NextRequestId();
  rec.RequestEnqueue(At(1.0), disk0, id, 0, 1.0);
  rec.RequestStart(At(1.1), disk0, id, 0, Duration::Seconds(0.1));
  rec.RequestComplete(At(1.3), disk0, id, 0, Duration::Seconds(0.1),
                      Duration::Seconds(0.2));
  rec.FaultActivate(At(2.0), disk0, rec.Intern("step"), 3.0, false);
  rec.StateTransition(At(3.0), disk0, rec.Intern("Healthy->Stuttering"), 1, 0.5);
  const std::string json = PerfettoTraceJson(rec.Events(), rec.components());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);   // track metadata
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // request slices
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // queue counter
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // fault instant
  EXPECT_NE(json.find("Healthy->Stuttering"), std::string::npos);
}

TEST(ExportTest, JsonlEmitsSchemaHeaderThenOneLinePerEvent) {
  EventRecorder rec;
  const uint16_t c = rec.Intern("c");
  rec.Mark(At(1.0), c, 0, 1.0);
  rec.Mark(At(2.0), c, 0, 2.0);
  rec.QueueDepth(At(3.0), c, 4.0);
  const std::string jsonl = EventsJsonl(rec.Events(), rec.components());
  int lines = 0;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      if (lines == 0) {
        // First line is the schema stamp, not an event.
        EXPECT_NE(line.find("\"schema_version\""), std::string::npos);
        EXPECT_EQ(line.find("\"t_ns\""), std::string::npos);
      }
      ++lines;
      EXPECT_EQ(line.front(), '{');
      EXPECT_EQ(line.back(), '}');
    }
  }
  EXPECT_EQ(lines, 4);  // header + 3 events
}

// ---------------------------------------------------------------- end-to-end

// A live Disk with a recorder attached emits a complete enqueue/start/
// complete span per request, with queue wait + service time equal to the
// request's observed latency.
TEST(ObsIntegrationTest, DiskEmitsRequestSpans) {
  Simulator sim(7);
  EventRecorder rec;
  DiskParams params;
  params.flat_bandwidth_mbps = 10.0;
  params.block_bytes = 65536;
  Disk disk(sim, "disk0", params, nullptr, &rec);

  const int kRequests = 5;
  std::vector<Duration> latencies;
  for (int i = 0; i < kRequests; ++i) {
    DiskRequest req;
    req.kind = IoKind::kWrite;
    req.offset_blocks = i;
    req.nblocks = 1;
    req.done = [&latencies](const IoResult& r) {
      latencies.push_back(r.Latency());
    };
    disk.Submit(std::move(req));
  }
  sim.Run();
  ASSERT_EQ(latencies.size(), static_cast<size_t>(kRequests));

  std::map<uint64_t, int> enqueue, start, complete;
  std::map<uint64_t, double> span_ns;
  for (const TraceEvent& e : rec.Events()) {
    switch (e.kind) {
      case EventKind::kRequestEnqueue:
        ++enqueue[e.request_id];
        break;
      case EventKind::kRequestStart:
        ++start[e.request_id];
        break;
      case EventKind::kRequestComplete:
        ++complete[e.request_id];
        span_ns[e.request_id] = e.a + e.b;  // queue wait + service
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(enqueue.size(), static_cast<size_t>(kRequests));
  EXPECT_EQ(start.size(), static_cast<size_t>(kRequests));
  ASSERT_EQ(complete.size(), static_cast<size_t>(kRequests));
  for (const auto& [id, n] : complete) {
    EXPECT_EQ(n, 1);
    EXPECT_EQ(enqueue[id], 1);
    EXPECT_EQ(start[id], 1);
  }
  // Spans cover the requests' full latency: the sum of all (wait+service)
  // equals the sum of observed latencies (FIFO disk, one at a time).
  double span_total = 0.0;
  for (const auto& [id, ns] : span_ns) {
    span_total += ns;
  }
  double latency_total = 0.0;
  for (const Duration& l : latencies) {
    latency_total += static_cast<double>(l.nanos());
  }
  EXPECT_NEAR(span_total, latency_total, 1.0);
}

// Serves one seeded chaos scenario with a recorder attached and returns
// what the campaigns derive from it.
struct ServedScenario {
  uint64_t fire_digest = 0;
  std::string control_jsonl;  // every non-span event, in snapshot order
  std::string correlation_json;
  std::string scorecard_json;
  int detected = 0;
  int gray_faults = 0;
  uint64_t recorded = 0;
  uint64_t dropped = 0;
};

// One seeded chaos scenario on a 4-node cluster, served by a fleet with a
// recorder attached, armed but not yet run.
struct ServedCell {
  ServedCell(uint64_t seed, bool request_spans) : sim(seed) {
    ClusterParams cluster;
    cluster.nodes = 4;
    cluster.shard.replication = 2;
    cluster.write_quorum = 2;
    cluster.retry.enabled = true;
    cluster.retry.deadline = Duration::Millis(800);
    cluster.recovery.enabled = true;
    cluster.live.enabled = true;
    recorder.set_request_spans(request_spans);
    svc = std::make_unique<KvService>(
        sim, cluster, std::make_unique<ProportionalSharePolicy>(), &recorder);
    injector = std::make_unique<FaultInjector>(sim);
    injector->set_recorder(&recorder);

    RandomScenarioParams sp;
    sp.nodes = cluster.nodes;
    sp.horizon = Duration::Seconds(12.0);
    sp.gray_faults = 2;
    schedule = RandomScenario(seed, sp);
    const auto has = [this](ChaosKind k) {
      return std::any_of(schedule.events.begin(), schedule.events.end(),
                         [k](const ChaosEvent& e) { return e.kind == k; });
    };
    EXPECT_TRUE(has(ChaosKind::kCrash) || has(ChaosKind::kFlap));
    EXPECT_TRUE(has(ChaosKind::kSlow));  // the gray stutters
    ApplySchedule(sim, *svc, schedule, *injector);

    ColumnarFleetParams fp;
    fp.base.arrivals_per_sec = 300.0;
    fp.base.run_for = sp.horizon;
    fp.base.read_fraction = 0.7;
    fp.base.key_space = 400;
    fleet = std::make_unique<ColumnarFleet>(sim, fp);
    end_of_run = SimTime::Zero() + sp.horizon + Duration::Seconds(6.0);
    svc->StartRecovery(end_of_run);
    svc->StartTelemetry(end_of_run);
    fleet->Run(*svc, [](const FleetResult&) {});
  }

  Simulator sim;
  EventRecorder recorder;
  std::unique_ptr<KvService> svc;
  std::unique_ptr<FaultInjector> injector;
  ChaosSchedule schedule;
  std::unique_ptr<ColumnarFleet> fleet;
  SimTime end_of_run;
};

ServedScenario ServeChaosScenario(uint64_t seed, bool request_spans) {
  ServedCell cell(seed, request_spans);
  cell.sim.Run();

  ServedScenario out;
  out.fire_digest = cell.sim.fire_digest();
  const std::vector<TraceEvent> events = cell.recorder.Events();
  std::vector<TraceEvent> control;
  std::copy_if(events.begin(), events.end(), std::back_inserter(control),
               [](const TraceEvent& e) {
                 return e.kind != EventKind::kRequestEnqueue &&
                        e.kind != EventKind::kRequestStart &&
                        e.kind != EventKind::kRequestComplete;
               });
  out.control_jsonl = EventsJsonl(control, cell.recorder.components());
  const CorrelationReport report =
      CorrelateFaultTimeline(events, cell.recorder.components());
  out.correlation_json = report.ToJson();
  out.detected = report.detected_count;
  const DetectorScorecard card = BuildScorecard(
      report, cell.svc->live()->expectation().GraySpans(), cell.end_of_run);
  out.scorecard_json = card.ToJson();
  out.gray_faults = card.gray_faults;
  out.recorded = cell.recorder.total_recorded();
  out.dropped = cell.recorder.dropped();
  return out;
}

// A control-only recorder changes nothing a campaign reads: the same
// events fire, it holds exactly the full recorder's non-span events, and
// the correlation report and detector scorecard match byte for byte.
TEST(ObsIntegrationTest, ControlOnlyRecorderMatchesFullRecorder) {
  for (uint64_t seed : {3u, 11u}) {
    const ServedScenario full = ServeChaosScenario(seed, true);
    const ServedScenario control = ServeChaosScenario(seed, false);
    // Precondition: the full ring never wrapped, so both saw every
    // control event.
    ASSERT_EQ(full.dropped, 0u) << "seed " << seed;
    EXPECT_GT(full.detected, 0) << "seed " << seed;
    EXPECT_GT(full.gray_faults, 0) << "seed " << seed;
    EXPECT_LT(control.recorded * 100, full.recorded)
        << "spans should dominate the full ring";
    EXPECT_EQ(control.fire_digest, full.fire_digest) << "seed " << seed;
    EXPECT_EQ(control.control_jsonl, full.control_jsonl) << "seed " << seed;
    EXPECT_EQ(control.correlation_json, full.correlation_json) << "seed " << seed;
    EXPECT_EQ(control.scorecard_json, full.scorecard_json) << "seed " << seed;
  }
}

// The service records an op's completion span in the event where the op
// completes, not at the front end's next drain: stopped mid-run, the ring
// holds one cluster completion per finished op. At 300 ops/s the fleet's
// 4096-arrival window outlasts the run, so nothing drains before the end.
TEST(ObsIntegrationTest, RingHoldsEachCompletionAtItsOwnEvent) {
  ServedCell cell(3, true);
  cell.sim.RunUntil(SimTime::Zero() + Duration::Seconds(5.123));
  const KvService& svc = *cell.svc;
  const int64_t finished = svc.reads() + svc.writes() -
                           static_cast<int64_t>(svc.in_flight_ops());
  ASSERT_GT(finished, 1000);
  ASSERT_EQ(cell.recorder.dropped(), 0u);
  const uint16_t cluster = cell.recorder.Intern("cluster");
  const std::vector<TraceEvent> events = cell.recorder.Events();
  const auto completions = std::count_if(
      events.begin(), events.end(), [cluster](const TraceEvent& e) {
        return e.kind == EventKind::kRequestComplete && e.component == cluster;
      });
  EXPECT_EQ(completions, finished);
}

TEST(ObsIntegrationTest, SimProfilerSamplesEventLoop) {
  Simulator sim(11);
  EventRecorder rec;
  SimProfiler profiler(sim, rec, Duration::Millis(100));
  profiler.Start();
  // Some activity for the profiler to observe, then stop it so Run drains.
  for (int i = 1; i <= 20; ++i) {
    sim.Schedule(Duration::Millis(25.0 * i), []() {});
  }
  sim.Schedule(Duration::Millis(600), [&profiler]() { profiler.Stop(); });
  sim.Run();
  EXPECT_GE(profiler.samples(), 5u);
  int counter_events = 0;
  for (const TraceEvent& e : rec.Events()) {
    if (e.kind == EventKind::kCounterSample) {
      ++counter_events;
    }
  }
  // Two counters per tick: events_per_interval and pending_events.
  EXPECT_GE(counter_events, 10);
}

}  // namespace
}  // namespace fst

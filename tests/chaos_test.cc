// Tests for the crash-recovery lifecycle and the chaos-campaign engine:
// the DSL round-trips exactly, random scenarios serialize crash windows,
// crash-restart faults drive the full fail/restart/warmup arc, the registry
// detects missed heartbeats, the retry policy enforces its three guards,
// and a crashed KvService node is detected, ejected, repaired, and re-ramped
// with zero acked-write loss. The E23 closed-form test pins the payoff:
// eject+repair recovers pre-fault goodput while eject-without-repair stays
// depressed by exactly the crashed node's ownership share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/campaign.h"
#include "src/chaos/scenario.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/fleet.h"
#include "src/cluster/retry.h"
#include "src/core/perf_spec.h"
#include "src/core/policy.h"
#include "src/core/registry.h"
#include "src/devices/node.h"
#include "src/faults/injector.h"
#include "src/simcore/simulator.h"
#include "tests/test_util.h"

namespace fst {
namespace {

SimTime At(double seconds) {
  return SimTime::Zero() + Duration::Seconds(seconds);
}

// ---------------------------------------------------------------------------
// Scenario DSL

TEST(ChaosDslTest, RoundTripsEveryKindExactly) {
  ChaosSchedule s;
  {
    ChaosEvent e;
    e.kind = ChaosKind::kSlow;
    e.node = 2;
    e.at = Duration(1234567891);  // deliberately not a round number of ms
    e.duration = Duration(987654321);
    e.magnitude = 3.7000000000000002;
    s.events.push_back(e);
  }
  {
    ChaosEvent e;
    e.kind = ChaosKind::kGc;
    e.node = 0;
    e.at = Duration::Seconds(2.5);
    e.duration = Duration::Seconds(3.0);
    e.pause = Duration::Millis(120);
    e.period = Duration(750000001);
    s.events.push_back(e);
  }
  {
    ChaosEvent e;
    e.kind = ChaosKind::kCrash;
    e.node = 1;
    e.at = Duration::Seconds(4.0);
    e.duration = Duration(1500000003);
    e.warmup = Duration::Seconds(1.0);
    e.magnitude = 2.25;
    s.events.push_back(e);
  }
  {
    ChaosEvent e;
    e.kind = ChaosKind::kFlap;
    e.node = 3;
    e.at = Duration::Seconds(8.0);
    e.duration = Duration::Seconds(1.2);
    e.period = Duration::Seconds(3.0);
    e.count = 3;
    s.events.push_back(e);
  }

  const std::string dsl = s.ToDsl();
  const ChaosSchedule back = ParseDsl(dsl);
  ASSERT_EQ(back.events.size(), s.events.size());
  for (size_t i = 0; i < s.events.size(); ++i) {
    const ChaosEvent& a = s.events[i];
    const ChaosEvent& b = back.events[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.node, b.node) << "event " << i;
    EXPECT_EQ(a.at.nanos(), b.at.nanos()) << "event " << i;
    EXPECT_EQ(a.duration.nanos(), b.duration.nanos()) << "event " << i;
    EXPECT_EQ(a.pause.nanos(), b.pause.nanos()) << "event " << i;
    EXPECT_EQ(a.period.nanos(), b.period.nanos()) << "event " << i;
    EXPECT_EQ(a.warmup.nanos(), b.warmup.nanos()) << "event " << i;
    EXPECT_DOUBLE_EQ(a.magnitude, b.magnitude) << "event " << i;
    EXPECT_EQ(a.count, b.count) << "event " << i;
  }
  // Serialize -> parse -> serialize is a fixed point.
  EXPECT_EQ(back.ToDsl(), dsl);
}

TEST(ChaosDslTest, ParsesHumanFriendlyScript) {
  const ChaosSchedule s = ParseDsl(
      "# warm-up blip, then a crash\n"
      "slow node=1 at=2s for=1500ms x4.5\n"
      "gc node=0 at=3s for=2s pause=100ms every=500ms; "
      "crash node=2 at=5.5s down=2s warmup=750ms x2\n"
      "flap node=3 at=10s down=1s period=2500ms n=2\n");
  ASSERT_EQ(s.events.size(), 4u);
  EXPECT_EQ(s.events[0].kind, ChaosKind::kSlow);
  EXPECT_EQ(s.events[0].node, 1);
  EXPECT_EQ(s.events[0].at.nanos(), Duration::Seconds(2.0).nanos());
  EXPECT_EQ(s.events[0].duration.nanos(), Duration::Millis(1500).nanos());
  EXPECT_DOUBLE_EQ(s.events[0].magnitude, 4.5);
  EXPECT_EQ(s.events[1].kind, ChaosKind::kGc);
  EXPECT_EQ(s.events[1].pause.nanos(), Duration::Millis(100).nanos());
  EXPECT_EQ(s.events[1].period.nanos(), Duration::Millis(500).nanos());
  EXPECT_EQ(s.events[2].kind, ChaosKind::kCrash);
  EXPECT_EQ(s.events[2].at.nanos(), Duration::Millis(5500).nanos());
  EXPECT_EQ(s.events[2].warmup.nanos(), Duration::Millis(750).nanos());
  EXPECT_DOUBLE_EQ(s.events[2].magnitude, 2.0);
  EXPECT_EQ(s.events[3].kind, ChaosKind::kFlap);
  EXPECT_EQ(s.events[3].count, 2);
}

TEST(ChaosDslTest, RejectsMalformedStatements) {
  EXPECT_THROW(ParseDsl("explode node=1 at=1s"), std::invalid_argument);
  // 'down' belongs to crash/flap, not slow.
  EXPECT_THROW(ParseDsl("slow node=1 at=1s down=2s"), std::invalid_argument);
  // Durations need a unit.
  EXPECT_THROW(ParseDsl("crash node=1 at=5 down=2s"), std::invalid_argument);
  EXPECT_THROW(ParseDsl("crash node=zzz at=1s down=2s"),
               std::invalid_argument);
  // A bare token with no '=' and no x-prefix is an error, not ignored.
  EXPECT_THROW(ParseDsl("slow node=1 at=1s for=1s bogus"),
               std::invalid_argument);
  // Numbers are whole tokens, finite, in range, and non-negative; ns (the
  // round-trip unit) is integer-only.
  EXPECT_THROW(ParseDsl("slow node=1 at=1s for=1s x2junk"),
               std::invalid_argument);
  EXPECT_THROW(ParseDsl("slow node=1 at=-5s for=1s x2"),
               std::invalid_argument);
  EXPECT_THROW(ParseDsl("slow node=1 at=1e30s for=1s x2"),
               std::invalid_argument);
  EXPECT_THROW(ParseDsl("slow node=1 at=1.9ns for=1s x2"),
               std::invalid_argument);
}

TEST(ChaosScenarioTest, RandomScenarioIsDeterministicPerSeed) {
  const RandomScenarioParams p;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_EQ(RandomScenario(seed, p).ToDsl(), RandomScenario(seed, p).ToDsl())
        << "seed " << seed;
  }
  EXPECT_NE(RandomScenario(1, p).ToDsl(), RandomScenario(2, p).ToDsl());
}

TEST(ChaosScenarioTest, CrashWindowsAreSerializedWithGap) {
  RandomScenarioParams p;
  p.crash_faults = 3;
  p.horizon = Duration::Seconds(40.0);
  const double gap = p.min_crash_gap.ToSeconds();
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const ChaosSchedule s = RandomScenario(seed, p);
    std::vector<std::pair<double, double>> windows;  // [start, end] seconds
    for (const ChaosEvent& e : s.events) {
      EXPECT_GE(e.node, 0);
      EXPECT_LT(e.node, p.nodes);
      if (e.kind == ChaosKind::kCrash) {
        windows.emplace_back(e.at.ToSeconds(),
                             (e.at + e.duration).ToSeconds());
      } else if (e.kind == ChaosKind::kFlap) {
        const double span = e.period.ToSeconds() * (e.count - 1) +
                            e.duration.ToSeconds();
        windows.emplace_back(e.at.ToSeconds(), e.at.ToSeconds() + span);
      }
    }
    std::sort(windows.begin(), windows.end());
    for (size_t i = 0; i < windows.size(); ++i) {
      // Every node is back up well inside the horizon so recovery and
      // repair can complete before invariants are checked.
      EXPECT_LE(windows[i].second, p.horizon.ToSeconds() * 0.75 + 1e-9)
          << "seed " << seed;
      if (i > 0) {
        EXPECT_GE(windows[i].first - windows[i - 1].second, gap - 1e-9)
            << "seed " << seed << ": crash windows overlap or crowd";
      }
    }
  }
}

TEST(ChaosScenarioTest, ApplyScheduleRejectsOutOfRangeNode) {
  Simulator sim(1);
  ClusterParams params;
  params.nodes = 4;
  KvService svc(sim, params, std::make_unique<EjectOnStutterPolicy>());
  FaultInjector injector(sim);
  const ChaosSchedule s = ParseDsl("crash node=7 at=1s down=1s");
  EXPECT_THROW(ApplySchedule(sim, svc, s, injector), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Leader selector: node=leader resolves at fault-fire time

TEST(ChaosDslTest, LeaderSelectorRoundTripsExactly) {
  ChaosSchedule s;
  ChaosEvent e;
  e.kind = ChaosKind::kGc;
  e.node = kLeaderNode;
  e.at = Duration(3141592653);
  e.duration = Duration::Seconds(2.0);
  e.pause = Duration::Millis(400);
  e.period = Duration(800000001);
  s.events.push_back(e);

  const std::string dsl = s.ToDsl();
  EXPECT_NE(dsl.find("node=leader"), std::string::npos) << dsl;
  const ChaosSchedule back = ParseDsl(dsl);
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].node, kLeaderNode);
  EXPECT_EQ(back.events[0].at.nanos(), e.at.nanos());
  EXPECT_EQ(back.events[0].period.nanos(), e.period.nanos());
  EXPECT_EQ(back.ToDsl(), dsl);

  const ChaosSchedule human =
      ParseDsl("slow node=leader at=2s for=1s x4\n");
  ASSERT_EQ(human.events.size(), 1u);
  EXPECT_EQ(human.events[0].node, kLeaderNode);
}

TEST(ChaosScenarioTest, LeaderFaultsAppendAfterAllOtherDraws) {
  RandomScenarioParams base;
  RandomScenarioParams with_leader = base;
  with_leader.leader_faults = 2;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const ChaosSchedule a = RandomScenario(seed, base);
    const ChaosSchedule b = RandomScenario(seed, with_leader);
    // The pre-existing draws are bit-identical; leader events are a pure
    // suffix targeting the leader selector.
    ASSERT_EQ(b.events.size(), a.events.size() + 2) << "seed " << seed;
    const std::string a_dsl = a.ToDsl();
    EXPECT_EQ(b.ToDsl().substr(0, a_dsl.size()), a_dsl) << "seed " << seed;
    for (size_t i = a.events.size(); i < b.events.size(); ++i) {
      EXPECT_EQ(b.events[i].node, kLeaderNode) << "seed " << seed;
    }
    EXPECT_EQ(RandomScenario(seed, with_leader).ToDsl(), b.ToDsl());
  }
}

TEST(ChaosScenarioTest, ApplyScheduleRequiresResolverForLeaderEvents) {
  Simulator sim(1);
  ClusterParams params;
  params.nodes = 4;
  KvService svc(sim, params, std::make_unique<EjectOnStutterPolicy>());
  FaultInjector injector(sim);
  const ChaosSchedule s = ParseDsl("slow node=leader at=1s for=1s x4");
  EXPECT_THROW(ApplySchedule(sim, svc, s, injector), std::invalid_argument);
  EXPECT_THROW(ApplySchedule(sim, svc, s, injector, LeaderResolver()),
               std::invalid_argument);
}

TEST(ChaosScenarioTest, LeaderEventBindsToFireTimeLeader) {
  Simulator sim(2);
  ClusterParams params;
  params.nodes = 4;
  KvService svc(sim, params, std::make_unique<EjectOnStutterPolicy>());
  FaultInjector injector(sim);

  // The "leader" moves from node1 to node2 at t=1.5s, before the event
  // fires at t=2s: the injected ground truth must name node2 — binding at
  // apply time would have hit node1.
  Node* leader = svc.node(1);
  sim.ScheduleAt(At(1.5), [&] { leader = svc.node(2); });
  const ChaosSchedule s = ParseDsl("slow node=leader at=2s for=1s x4");
  ApplySchedule(sim, svc, s, injector,
                [&leader]() -> FaultableDevice* { return leader; });
  sim.Run();

  ASSERT_EQ(injector.injected().size(), 1u);
  EXPECT_EQ(injector.injected()[0].component, "node2");
  EXPECT_NEAR(injector.injected()[0].when.ToSeconds(), 2.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Crash-restart fault at the device layer

TEST(CrashRestartTest, NodeFailsRestartsAndWarmsUp) {
  Simulator sim(3);
  Node node(sim, "n0", NodeParams{});
  FaultInjector injector(sim);

  CrashRestartFault f;
  f.at = At(1.0);
  f.down_for = Duration::Seconds(2.0);  // restart at t=3
  f.warmup_factor = 4.0;
  f.warmup_for = Duration::Seconds(1.0);  // nominal again at t=4
  injector.ScheduleCrashRestart(node, f);

  int failures = 0;
  int recoveries = 0;
  node.OnFailure([&] { ++failures; });
  node.OnRecovery([&] { ++recoveries; });

  struct Obs {
    bool ok = false;
    double latency_s = 0.0;
  };
  std::vector<Obs> obs(4);
  const double work = 1000.0;  // 1 ms at the default 1e6 units/sec
  const auto probe = [&](double when, Obs* out) {
    sim.ScheduleAt(At(when), [&, when, out] {
      node.Compute(work, [&, when, out](const IoResult& r) {
        out->ok = r.ok;
        out->latency_s = (r.completed - At(when)).ToSeconds();
      });
    });
  };
  probe(0.5, &obs[0]);  // healthy
  probe(1.5, &obs[1]);  // down
  probe(3.2, &obs[2]);  // restarted, inside the 4x warmup window
  probe(4.5, &obs[3]);  // fully recovered

  sim.Run();

  EXPECT_TRUE(obs[0].ok);
  EXPECT_NEAR(obs[0].latency_s, 1e-3, 1e-4);
  EXPECT_FALSE(obs[1].ok);
  EXPECT_TRUE(obs[2].ok);
  EXPECT_NEAR(obs[2].latency_s, 4e-3, 4e-4);  // warmup_factor = 4
  EXPECT_TRUE(obs[3].ok);
  EXPECT_NEAR(obs[3].latency_s, 1e-3, 1e-4);

  EXPECT_EQ(node.restarts(), 1);
  EXPECT_FALSE(node.has_failed());
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(recoveries, 1);

  // The injector records both the crash and the warmup stutter.
  bool saw_crash = false;
  bool saw_warmup = false;
  for (const InjectedFault& inj : injector.injected()) {
    saw_crash |= inj.kind == "crash-restart";
    saw_warmup |= inj.kind == "restart-warmup";
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_warmup);
}

// ---------------------------------------------------------------------------
// Missed-heartbeat crash detection in the registry

TEST(RegistryLivenessTest, TimeoutDeclaresCrashAndRecoveryClears) {
  PerformanceStateRegistry reg;
  reg.Register("a", PerformanceSpec::RateBand(1000.0, 0.25));
  reg.Register("b", PerformanceSpec::RateBand(1000.0, 0.25));

  reg.RecordLiveness("a", At(1.0));
  reg.RecordLiveness("b", At(1.0));
  EXPECT_EQ(reg.LastLiveness("b").nanos(), At(1.0).nanos());
  EXPECT_TRUE(reg.CheckLiveness(At(1.5), Duration::Seconds(1.0)).empty());

  // Only "a" keeps proving liveness; "b" goes silent past the deadline.
  reg.RecordLiveness("a", At(2.5));
  const std::vector<std::string> failed =
      reg.CheckLiveness(At(3.2), Duration::Seconds(1.0));
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], "b");
  EXPECT_EQ(reg.StateOf("a"), PerfState::kHealthy);
  EXPECT_EQ(reg.StateOf("b"), PerfState::kFailed);

  // Already-failed components are not re-declared ("a" is still inside
  // its deadline at t=3.4).
  EXPECT_TRUE(reg.CheckLiveness(At(3.4), Duration::Seconds(1.0)).empty());

  reg.MarkRecovered("b", At(5.0));
  reg.RecordLiveness("a", At(5.0));
  EXPECT_EQ(reg.StateOf("b"), PerfState::kHealthy);
  EXPECT_EQ(reg.LastLiveness("b").nanos(), At(5.0).nanos());
  // Recovery renewed liveness, so the next sweep finds nothing.
  EXPECT_TRUE(reg.CheckLiveness(At(5.5), Duration::Seconds(1.0)).empty());

  // MarkRecovered is a no-op on a component that never failed.
  reg.MarkRecovered("a", At(5.0));
  EXPECT_EQ(reg.StateOf("a"), PerfState::kHealthy);

  // The episode is visible in the published history: down, then back up.
  bool saw_fail = false;
  bool saw_recover = false;
  for (const StateChange& c : reg.history()) {
    if (c.component != "b") {
      continue;
    }
    saw_fail |= c.to == PerfState::kFailed;
    saw_recover |= c.from == PerfState::kFailed && c.to == PerfState::kHealthy;
  }
  EXPECT_TRUE(saw_fail);
  EXPECT_TRUE(saw_recover);
}

// ---------------------------------------------------------------------------
// Retry policy guards

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryParams p;
  p.enabled = true;
  p.max_attempts = 10;
  p.jitter = 0.0;
  RetryPolicy pol(p, Rng(7));
  const int64_t expect_ms[] = {10, 20, 40, 80, 160, 160, 160};
  for (int k = 1; k <= 7; ++k) {
    const RetryPolicy::Decision d = pol.Consider(k, Duration::Zero());
    ASSERT_TRUE(d.retry) << "attempt " << k;
    EXPECT_EQ(d.backoff.nanos(), Duration::Millis(expect_ms[k - 1]).nanos())
        << "attempt " << k;
  }
}

TEST(RetryPolicyTest, AttemptCapAndDisabledDeny) {
  RetryParams p;
  p.enabled = true;
  p.max_attempts = 3;
  RetryPolicy pol(p, Rng(7));
  EXPECT_TRUE(pol.Consider(2, Duration::Zero()).retry);
  EXPECT_FALSE(pol.Consider(3, Duration::Zero()).retry);
  EXPECT_EQ(pol.stats().denied_attempts, 1);

  RetryPolicy off(RetryParams{}, Rng(7));  // enabled defaults to false
  EXPECT_FALSE(off.Consider(1, Duration::Zero()).retry);
}

TEST(RetryPolicyTest, DeadlineBudgetStopsLateRetries) {
  RetryParams p;
  p.enabled = true;
  p.jitter = 0.0;
  p.deadline = Duration::Millis(50);
  RetryPolicy pol(p, Rng(7));
  // 30 ms elapsed + 10 ms backoff fits inside 50 ms.
  EXPECT_TRUE(pol.Consider(1, Duration::Millis(30)).retry);
  // 45 ms elapsed + 10 ms backoff would blow the deadline.
  EXPECT_FALSE(pol.Consider(1, Duration::Millis(45)).retry);
  EXPECT_EQ(pol.stats().denied_deadline, 1);
}

TEST(RetryPolicyTest, TokenBucketBreaksCircuitAndRefills) {
  RetryParams p;
  p.enabled = true;
  p.budget_cap = 2.0;
  p.budget_ratio = 0.5;
  RetryPolicy pol(p, Rng(7));
  // The bucket starts full (2 tokens): two grants, then the breaker opens.
  EXPECT_TRUE(pol.Consider(1, Duration::Zero()).retry);
  EXPECT_TRUE(pol.Consider(1, Duration::Zero()).retry);
  EXPECT_FALSE(pol.Consider(1, Duration::Zero()).retry);
  EXPECT_EQ(pol.stats().denied_budget, 1);
  // Two arrivals earn one token back.
  pol.OnArrival();
  pol.OnArrival();
  EXPECT_TRUE(pol.Consider(1, Duration::Zero()).retry);
  EXPECT_FALSE(pol.Consider(1, Duration::Zero()).retry);
  EXPECT_EQ(pol.stats().granted, 3);
}

TEST(RetryPolicyTest, JitterIsBoundedAndDeterministic) {
  RetryParams p;
  p.enabled = true;
  p.jitter = 0.5;
  p.budget_cap = 1000.0;
  RetryPolicy a(p, Rng(9));
  RetryPolicy b(p, Rng(9));
  double lo = 1e9;
  double hi = 0.0;
  for (int i = 0; i < 200; ++i) {
    const RetryPolicy::Decision da = a.Consider(1, Duration::Zero());
    const RetryPolicy::Decision db = b.Consider(1, Duration::Zero());
    ASSERT_TRUE(da.retry);
    // Same params + same seed => bit-identical backoff sequence.
    ASSERT_EQ(da.backoff.nanos(), db.backoff.nanos());
    const double ms = da.backoff.ToSeconds() * 1e3;
    lo = std::min(lo, ms);
    hi = std::max(hi, ms);
    EXPECT_GE(ms, 5.0 - 1e-9);   // base 10 ms scaled by [1 - jitter, 1]
    EXPECT_LE(ms, 10.0 + 1e-9);
  }
  // The draws actually spread across the band.
  EXPECT_LT(lo, 6.0);
  EXPECT_GT(hi, 9.0);
}

// ---------------------------------------------------------------------------
// End-to-end crash -> detect -> eject -> repair -> recover

TEST(CrashRecoveryTest, ServiceHealsAfterScriptedCrash) {
  Simulator sim(11);
  FleetParams fleet_params;
  fleet_params.arrivals_per_sec = 250.0;
  fleet_params.run_for = Duration::Seconds(12.0);
  fleet_params.read_fraction = 0.7;
  fleet_params.key_space = 200;
  ColumnarFleet fleet(sim, fleet_params);

  ClusterParams params;
  params.nodes = 4;
  params.shard.replication = 2;
  params.write_quorum = 2;
  params.retry.enabled = true;
  params.retry.deadline = Duration::Millis(800);
  params.recovery.enabled = true;
  KvService svc(sim, params, std::make_unique<ProportionalSharePolicy>());

  FaultInjector injector(sim);
  const ChaosSchedule schedule =
      ParseDsl("crash node=1 at=4s down=1500ms warmup=1s x2");
  ApplySchedule(sim, svc, schedule, injector);
  svc.StartRecovery(At(18.0));

  bool done = false;
  FleetResult result;
  fleet.Run(svc, [&](const FleetResult& r) {
    done = true;
    result = r;
  });
  RunAndExpect(sim, done);

  EXPECT_EQ(svc.crashes(), 1);
  EXPECT_EQ(svc.recoveries(), 1);
  EXPECT_EQ(svc.node(1)->restarts(), 1);

  // No acked write may be lost and replication must be restored: the
  // crashed node's shards were re-populated by anti-entropy repair.
  EXPECT_EQ(svc.lost_acked_writes(), 0);
  EXPECT_EQ(svc.under_replicated_keys(), 0);
  EXPECT_GT(svc.keys_repaired(), 0);

  // The node is fully back in rotation at its full selector share.
  EXPECT_FALSE(svc.node(1)->has_failed());
  EXPECT_FALSE(svc.shard_map().IsEjected(1));
  EXPECT_EQ(svc.registry().StateOf("node1"), PerfState::kHealthy);
  EXPECT_DOUBLE_EQ(svc.selector().WeightOf(1), 1.0);

  // The fleet made progress and most ops succeeded despite the crash.
  EXPECT_GT(result.ops_ok, result.ops_issued * 9 / 10);
  EXPECT_GT(svc.slo().goodput(), 0);
}

// A crash too short for any detector still wipes the node's store, so
// anti-entropy repair must notice the missing copies on its own: no
// request is in flight, a probe to a down node proves nothing, and the
// 1 s liveness timeout never expires before the node is back. Restarting
// at 5.060 s puts no repair step inside the down window; restarting at
// 5.600 s lets the 5.25 s and 5.5 s kicks run steps that see the node
// down and missing its keys, which must stay due until it returns.
TEST(CrashRecoveryTest, UndetectedShortCrashIsStillRepaired) {
  const struct {
    double restart_at;
    uint64_t digest;
  } kCases[] = {
      {5.060, 0x0c901a04d8dc7cd9ULL},
      {5.600, 0x76b857818ca1522cULL},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.restart_at);
    Simulator sim(5);
    ClusterParams params;
    params.nodes = 4;
    params.shard.replication = 2;
    params.write_quorum = 2;
    params.recovery.enabled = true;
    KvService svc(sim, params, std::make_unique<ProportionalSharePolicy>());
    svc.StartRecovery(At(10.0));

    for (uint64_t key = 0; key < 200; ++key) {
      sim.ScheduleAt(At(0.010 * static_cast<double>(key)),
                     [&svc, key] { svc.PutTagged(key, key); });
    }
    sim.ScheduleAt(At(5.010), [&svc] { svc.node(1)->FailStop(); });
    sim.ScheduleAt(At(c.restart_at), [&svc] { svc.node(1)->Restart(); });
    sim.Run();

    int acked = 0;
    for (const CompletionRecord& r : svc.DrainCompletions()) {
      acked += r.outcome == SloOutcome::kAck ? 1 : 0;
    }
    EXPECT_EQ(acked, 200);
    EXPECT_EQ(svc.crashes(), 1);
    EXPECT_EQ(svc.recoveries(), 0);
    EXPECT_EQ(svc.shard_map().rebalances(), 0);
    EXPECT_EQ(svc.keys_repaired(), 155);
    EXPECT_EQ(svc.under_replicated_keys(), 0);
    EXPECT_EQ(svc.lost_acked_writes(), 0);
    EXPECT_EQ(sim.fire_digest(), c.digest);
  }
}

// ---------------------------------------------------------------------------
// E23 closed form: goodput through a crash, with and without repair.
//
// Phase 1 writes the whole key space (uniform, quorum=2); phase 2 serves
// reads only. node0 crashes at t=10s for 2s. With recovery enabled the
// service re-replicates node0's shards and ramps it back in, so late-window
// goodput returns to the pre-fault rate. Without recovery node0 stays
// ejected, so reads for keys it owned walk the ring to a successor that
// never held the data: a fraction
//     affected/2  (affected = keys with node0 in the replica set,
//                  halved because reads split across the two live replicas)
// of reads miss, forever. That is the closed form the depressed arm is
// checked against.

struct E23Outcome {
  double prefault_rate = 0.0;   // goodput/sec over [6s, 10s)
  double recovered_rate = 0.0;  // goodput/sec over [24s, 29s)
  double affected_fraction = 0.0;
  int64_t keys_repaired = 0;
  int64_t read_misses = 0;
  int64_t lost_acked = 0;
  int64_t under_replicated = 0;
};

// One arm of E23. `with_crash = false` is the control: with the same seed
// and construction order the client arrival stream is bit-identical, so
// control-vs-fault goodput ratios cancel the Poisson noise that a
// window-vs-window comparison inside one run would carry.
E23Outcome RunE23Arm(bool with_recovery, bool with_crash) {
  Simulator sim(42);

  FleetParams write_phase;
  write_phase.arrivals_per_sec = 400.0;
  write_phase.run_for = Duration::Seconds(5.0);
  write_phase.read_fraction = 0.0;
  write_phase.key_space = 250;
  write_phase.zipf_s = 0.0;  // uniform: every key gets written w.h.p.
  ColumnarFleet writers(sim, write_phase);

  FleetParams read_phase = write_phase;
  read_phase.arrivals_per_sec = 300.0;
  read_phase.run_for = Duration::Seconds(25.0);
  read_phase.read_fraction = 1.0;
  ColumnarFleet readers(sim, read_phase);

  ClusterParams params;
  params.nodes = 4;
  params.shard.replication = 2;
  params.write_quorum = 2;
  if (with_recovery) {
    params.retry.enabled = true;
    params.retry.deadline = Duration::Millis(800);
    params.recovery.enabled = true;
  } else {
    params.track_data = true;  // invariants still probed, nothing repaired
  }
  KvService svc(sim, params, std::make_unique<ProportionalSharePolicy>());

  E23Outcome out;
  int affected = 0;
  for (uint64_t key = 0; key < static_cast<uint64_t>(write_phase.key_space);
       ++key) {
    const std::vector<int> replicas = svc.shard_map().ReplicasFor(key);
    affected += std::find(replicas.begin(), replicas.end(), 0) !=
                replicas.end();
  }
  out.affected_fraction =
      static_cast<double>(affected) / write_phase.key_space;

  FaultInjector injector(sim);
  if (with_crash) {
    ApplySchedule(sim, svc, ParseDsl("crash node=0 at=10s down=2s"), injector);
  }
  if (with_recovery) {
    svc.StartRecovery(At(31.0));
  }

  int64_t g6 = 0;
  int64_t g10 = 0;
  int64_t g24 = 0;
  int64_t g29 = 0;
  sim.ScheduleAt(At(6.0), [&] { g6 = svc.slo().goodput(); });
  sim.ScheduleAt(At(10.0), [&] { g10 = svc.slo().goodput(); });
  sim.ScheduleAt(At(24.0), [&] { g24 = svc.slo().goodput(); });
  sim.ScheduleAt(At(29.0), [&] { g29 = svc.slo().goodput(); });

  bool done = false;
  writers.Run(svc, [&](const FleetResult&) {
    readers.Run(svc, [&](const FleetResult&) { done = true; });
  });
  RunAndExpect(sim, done);

  out.prefault_rate = static_cast<double>(g10 - g6) / 4.0;
  out.recovered_rate = static_cast<double>(g29 - g24) / 5.0;
  out.keys_repaired = svc.keys_repaired();
  out.read_misses = svc.read_misses();
  out.lost_acked = svc.lost_acked_writes();
  out.under_replicated = svc.under_replicated_keys();
  return out;
}

TEST(E23GoodputTest, RepairRestoresPreFaultGoodput) {
  const E23Outcome fault = RunE23Arm(/*with_recovery=*/true,
                                     /*with_crash=*/true);
  const E23Outcome control = RunE23Arm(/*with_recovery=*/true,
                                       /*with_crash=*/false);
  ASSERT_GT(fault.prefault_rate, 200.0);
  ASSERT_GT(control.recovered_rate, 200.0);
  // The acceptance bar: the late window recovers to within 5% of the same
  // window in a crash-free run of the identical arrival stream.
  EXPECT_GE(fault.recovered_rate, 0.95 * control.recovered_rate)
      << "recovered=" << fault.recovered_rate
      << " control=" << control.recovered_rate;
  EXPECT_GT(fault.keys_repaired, 0);
  EXPECT_EQ(fault.lost_acked, 0);
  EXPECT_EQ(fault.under_replicated, 0);
}

TEST(E23GoodputTest, WithoutRepairGoodputStaysDepressedByOwnershipShare) {
  const E23Outcome fault = RunE23Arm(/*with_recovery=*/false,
                                     /*with_crash=*/true);
  const E23Outcome control = RunE23Arm(/*with_recovery=*/false,
                                       /*with_crash=*/false);
  ASSERT_GT(fault.prefault_rate, 200.0);
  ASSERT_GT(control.recovered_rate, 200.0);
  const double ratio = fault.recovered_rate / control.recovered_rate;
  // Closed form: the steady-state miss fraction is affected/2.
  const double expected = 1.0 - fault.affected_fraction / 2.0;
  EXPECT_NEAR(ratio, expected, 0.1)
      << "late=" << fault.recovered_rate
      << " control=" << control.recovered_rate
      << " affected=" << fault.affected_fraction;
  // And the depression is real, not noise.
  EXPECT_LT(ratio, 0.92);
  EXPECT_GT(fault.read_misses, 0);
  // The surviving replica still holds every acked key...
  EXPECT_EQ(fault.lost_acked, 0);
  // ...but nothing re-replicated them.
  EXPECT_GT(fault.under_replicated, 0);
  EXPECT_EQ(fault.keys_repaired, 0);
}

// ---------------------------------------------------------------------------
// Campaign engine

TEST(CampaignTest, MiniCampaignHoldsInvariantsAtAnyThreadCount) {
  CampaignParams p;
  p.seeds = 8;
  p.run_for = Duration::Seconds(12.0);
  p.settle = Duration::Seconds(6.0);

  p.threads = 1;
  const CampaignResult serial = RunCampaign(p);
  EXPECT_EQ(serial.violations, 0);
  ASSERT_EQ(serial.outcomes.size(), 8u);
  int crashes = 0;
  for (const SeedOutcome& o : serial.outcomes) {
    EXPECT_TRUE(o.ok) << "seed " << o.seed << " violated: "
                      << (o.violations.empty() ? "" : o.violations[0]);
    // A warmup-stuttering node can trip the liveness timeout again after
    // its restart (a false-positive crash declaration — classic
    // fail-stutter), so recoveries may exceed device crashes; they can
    // never be fewer.
    EXPECT_GE(o.recoveries, o.crashes) << "seed " << o.seed;
    EXPECT_EQ(o.lost_acked, 0) << "seed " << o.seed;
    EXPECT_EQ(o.under_replicated, 0) << "seed " << o.seed;
    EXPECT_GT(o.goodput_per_sec, 0.0) << "seed " << o.seed;
    crashes += o.crashes;
  }
  // The generator actually exercised the crash path across the campaign.
  EXPECT_GT(crashes, 0);

  // Campaign reports are byte-identical regardless of sweep parallelism.
  p.threads = 3;
  const CampaignResult threaded = RunCampaign(p);
  EXPECT_EQ(serial.ReportJson(), threaded.ReportJson());
}

}  // namespace
}  // namespace fst

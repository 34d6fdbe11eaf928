// Tests for the resilience-pattern policy engine and its chaos vocabulary:
// the three new DSL primitives (gray / correlated / retrystorm) round-trip
// bit-exactly and reject malformed scripts, correlated events fan out to
// every domain member, arrival surges plumb from the schedule into the
// client fleet without perturbing surge-free streams, the retry budget
// drains and refills deterministically and surfaces in SloSnapshot,
// prediction-based eviction acts inside the detector's blind band,
// rejuvenation staggers proactive restarts through the organic crash
// lifecycle, n-modular reads reach quorum, checkpointed batch runs crashed
// at every boundary replay to the uncrashed digest, and the full ablation
// campaign is byte-identical across sweep thread counts while
// demonstrating retry-storm metastability (budget off) and its prevention
// (budget on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/chaos/scenario.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/fleet.h"
#include "src/cluster/retry.h"
#include "src/core/policy.h"
#include "src/faults/injector.h"
#include "src/resilience/campaign.h"
#include "src/resilience/checkpoint.h"
#include "src/resilience/policy.h"
#include "src/simcore/simulator.h"

namespace fst {
namespace {

SimTime At(double seconds) {
  return SimTime::Zero() + Duration::Seconds(seconds);
}

// ---------------------------------------------------------------------------
// Scenario DSL: the three new primitives

TEST(ResilienceDslTest, RoundTripsNewKindsExactly) {
  ChaosSchedule s;
  {
    ChaosEvent e;
    e.kind = ChaosKind::kGray;
    e.node = 1;
    e.at = Duration(1234567891);  // deliberately not a round number of ms
    e.duration = Duration(987654321);
    e.magnitude = 1.3300000000000001;
    s.events.push_back(e);
  }
  {
    ChaosEvent e;
    e.kind = ChaosKind::kCorrelated;
    e.members = {0, 2, 3};
    e.at = Duration::Seconds(2.5);
    e.inner = ChaosKind::kSlow;
    e.duration = Duration(1750000003);
    e.magnitude = 2.75;
    s.events.push_back(e);
  }
  {
    ChaosEvent e;
    e.kind = ChaosKind::kCorrelated;
    e.members = {1, 2};
    e.at = Duration::Seconds(6.0);
    e.inner = ChaosKind::kCrash;
    e.duration = Duration(1500000007);
    s.events.push_back(e);
  }
  {
    ChaosEvent e;
    e.kind = ChaosKind::kRetryStorm;
    e.at = Duration::Seconds(8.0);
    e.duration = Duration::Seconds(2.0);
    e.surge = 3.7000000000000002;
    e.magnitude = 2.9;
    s.events.push_back(e);
  }

  const std::string dsl = s.ToDsl();
  const ChaosSchedule back = ParseDsl(dsl);
  ASSERT_EQ(back.events.size(), s.events.size());
  for (size_t i = 0; i < s.events.size(); ++i) {
    const ChaosEvent& a = s.events[i];
    const ChaosEvent& b = back.events[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.at.nanos(), b.at.nanos()) << "event " << i;
    EXPECT_EQ(a.duration.nanos(), b.duration.nanos()) << "event " << i;
    EXPECT_DOUBLE_EQ(a.magnitude, b.magnitude) << "event " << i;
    EXPECT_EQ(a.members, b.members) << "event " << i;
    EXPECT_EQ(a.inner, b.inner) << "event " << i;
    EXPECT_DOUBLE_EQ(a.surge, b.surge) << "event " << i;
  }
  // Serialize -> parse -> serialize is a fixed point.
  EXPECT_EQ(back.ToDsl(), dsl);
}

TEST(ResilienceDslTest, ParsesHumanFriendlyNewStatements) {
  const ChaosSchedule s = ParseDsl(
      "# a gray stutter, a shared-fate rack, and a metastable trigger\n"
      "gray node=1 at=2s for=1500ms x1.35\n"
      "correlated nodes=0,2 at=3s mode=slow for=2s x3; "
      "correlated nodes=1,3 at=6s mode=crash down=1200ms\n"
      "retrystorm at=8s for=2s surge=4 x2.5\n");
  ASSERT_EQ(s.events.size(), 4u);
  EXPECT_EQ(s.events[0].kind, ChaosKind::kGray);
  EXPECT_EQ(s.events[0].node, 1);
  EXPECT_DOUBLE_EQ(s.events[0].magnitude, 1.35);
  EXPECT_EQ(s.events[1].kind, ChaosKind::kCorrelated);
  EXPECT_EQ(s.events[1].inner, ChaosKind::kSlow);
  EXPECT_EQ(s.events[1].members, (std::vector<int>{0, 2}));
  EXPECT_EQ(s.events[2].inner, ChaosKind::kCrash);
  EXPECT_EQ(s.events[2].duration.nanos(), Duration::Millis(1200).nanos());
  EXPECT_EQ(s.events[3].kind, ChaosKind::kRetryStorm);
  EXPECT_DOUBLE_EQ(s.events[3].surge, 4.0);
  EXPECT_DOUBLE_EQ(s.events[3].magnitude, 2.5);
}

TEST(ResilienceDslTest, RejectsMalformedNewStatements) {
  // correlated needs a member list.
  EXPECT_THROW(ParseDsl("correlated at=1s mode=slow for=1s x2"),
               std::invalid_argument);
  // ... and a known mode.
  EXPECT_THROW(ParseDsl("correlated nodes=1,2 at=1s mode=warp for=1s x2"),
               std::invalid_argument);
  // Empty segments in the member list are errors, not silently skipped.
  EXPECT_THROW(ParseDsl("correlated nodes=1,,2 at=1s mode=crash down=1s"),
               std::invalid_argument);
  // retrystorm is fleet-wide: a node= selector is meaningless.
  EXPECT_THROW(ParseDsl("retrystorm node=1 at=1s for=1s surge=3 x2"),
               std::invalid_argument);
  // gray is a slowdown; down= belongs to crash-shaped kinds.
  EXPECT_THROW(ParseDsl("gray node=1 at=1s down=2s"), std::invalid_argument);
  // surge= belongs to retrystorm alone.
  EXPECT_THROW(ParseDsl("slow node=1 at=1s for=1s surge=3 x2"),
               std::invalid_argument);
}

TEST(ResilienceDslTest, CorrelatedFansOutToEveryMember) {
  Simulator sim(11);
  ClusterParams cp;
  cp.nodes = 4;
  KvService svc(sim, cp, std::make_unique<ProportionalSharePolicy>());
  FaultInjector injector(sim);
  const ChaosSchedule s =
      ParseDsl("correlated nodes=0,2,3 at=1s mode=slow for=2s x3");
  ApplySchedule(sim, svc, s, injector);
  sim.Run();
  // One ground-truth record per member, same instant, same episode.
  ASSERT_EQ(injector.injected().size(), 3u);
  std::vector<std::string> components;
  for (const InjectedFault& f : injector.injected()) {
    components.push_back(f.component);
    EXPECT_EQ(f.when.nanos(), At(1.0).nanos());
  }
  EXPECT_EQ(components, (std::vector<std::string>{"node0", "node2", "node3"}));
}

TEST(ResilienceDslTest, SurgeWindowsExtractsStormArrivalHalf) {
  const ChaosSchedule s = ParseDsl(
      "slow node=1 at=1s for=1s x2\n"
      "retrystorm at=5s for=2s surge=4 x3\n");
  const std::vector<SurgeWindow> w = SurgeWindows(s);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].at.nanos(), Duration::Seconds(5.0).nanos());
  EXPECT_EQ(w[0].duration.nanos(), Duration::Seconds(2.0).nanos());
  EXPECT_DOUBLE_EQ(w[0].factor, 4.0);
}

TEST(ResilienceDslTest, RandomScenarioDrawsStormsAndGrayEvents) {
  RandomScenarioParams sp;
  sp.nodes = 4;
  sp.horizon = Duration::Seconds(20.0);
  sp.stutter_faults = 0;
  sp.crash_faults = 0;
  sp.correlated_faults = 1;
  sp.gray_events = 1;
  sp.retry_storms = 1;
  const ChaosSchedule s = RandomScenario(3, sp);
  int gray = 0, correlated = 0, storms = 0;
  for (const ChaosEvent& e : s.events) {
    gray += e.kind == ChaosKind::kGray ? 1 : 0;
    correlated += e.kind == ChaosKind::kCorrelated ? 1 : 0;
    storms += e.kind == ChaosKind::kRetryStorm ? 1 : 0;
  }
  EXPECT_EQ(gray, 1);
  EXPECT_EQ(correlated, 1);
  EXPECT_EQ(storms, 1);
  // Generated schedules round-trip like hand-written ones.
  EXPECT_EQ(ParseDsl(s.ToDsl()).ToDsl(), s.ToDsl());
  ASSERT_EQ(SurgeWindows(s).size(), 1u);
}

// ---------------------------------------------------------------------------
// Fleet arrival surges

struct SurgeRun {
  uint64_t digest = 0;
  int64_t arrivals = 0;
};

SurgeRun RunWithSurges(const std::vector<ArrivalSurge>& surges) {
  Simulator sim(17);
  FleetParams fp;
  fp.arrivals_per_sec = 200.0;
  fp.run_for = Duration::Seconds(10.0);
  fp.read_fraction = 1.0;
  fp.surges = surges;
  ColumnarFleet fleet(sim, fp);
  ClusterParams cp;
  cp.nodes = 4;
  KvService svc(sim, cp, std::make_unique<ProportionalSharePolicy>());
  fleet.Run(svc, [](const FleetResult&) {});
  sim.Run();
  return {sim.fire_digest(), svc.slo().arrivals()};
}

TEST(FleetSurgeTest, NoSurgesMatchesUnitFactorWindowBitForBit) {
  // An all-covering factor-1.0 window must reproduce the surge-free
  // arrival stream exactly: the surge path rescales the same draw, so a
  // unit factor is the identity.
  const SurgeRun plain = RunWithSurges({});
  const SurgeRun unit =
      RunWithSurges({{Duration::Zero(), Duration::Seconds(10.0), 1.0}});
  EXPECT_EQ(plain.digest, unit.digest);
  EXPECT_EQ(plain.arrivals, unit.arrivals);
}

TEST(FleetSurgeTest, SurgeWindowMultipliesArrivalRate) {
  const SurgeRun plain = RunWithSurges({});
  const SurgeRun surged = RunWithSurges(
      {{Duration::Seconds(4.0), Duration::Seconds(3.0), 3.0}});
  // 3s of 3x arrivals on a 10s run adds ~2 * 200 * 3 = ~1200 extra on
  // ~2000. Leave slack for the open-loop draw but demand a clearly
  // multiplied stream.
  EXPECT_GT(surged.arrivals, plain.arrivals + 900);
  EXPECT_LT(surged.arrivals, plain.arrivals + 1500);
}

// ---------------------------------------------------------------------------
// Retry budget: deterministic drain and refill, surfaced in SloSnapshot

TEST(RetryBudgetTest, DrainsDeniesAndRefills) {
  Simulator sim(1);
  RetryParams rp;
  rp.enabled = true;
  rp.max_attempts = 10;
  rp.jitter = 0.0;
  rp.budget_ratio = 0.5;
  rp.budget_cap = 4.0;
  RetryPolicy pol(rp, sim.rng().Fork());

  EXPECT_DOUBLE_EQ(pol.Snapshot().tokens, 4.0);
  // Four grants drain the bucket dry...
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(pol.Consider(1, Duration::Zero()).retry) << i;
  }
  EXPECT_DOUBLE_EQ(pol.Snapshot().tokens, 0.0);
  // ...the fifth is denied on budget, not attempts or deadline.
  EXPECT_FALSE(pol.Consider(1, Duration::Zero()).retry);
  RetrySnapshot snap = pol.Snapshot();
  EXPECT_EQ(snap.granted, 4);
  EXPECT_EQ(snap.denied_budget, 1);
  EXPECT_EQ(snap.denied_attempts, 0);
  EXPECT_EQ(snap.denied_deadline, 0);
  // Two arrivals earn one token back; exactly one more retry flows.
  pol.OnArrival();
  pol.OnArrival();
  EXPECT_DOUBLE_EQ(pol.Snapshot().tokens, 1.0);
  EXPECT_TRUE(pol.Consider(1, Duration::Zero()).retry);
  EXPECT_FALSE(pol.Consider(1, Duration::Zero()).retry);
  EXPECT_EQ(pol.Snapshot().denied_budget, 2);
  // Refills never overflow the cap.
  for (int i = 0; i < 100; ++i) {
    pol.OnArrival();
  }
  EXPECT_DOUBLE_EQ(pol.Snapshot().tokens, 4.0);
}

TEST(RetryBudgetTest, DisabledBudgetNeverDeniesOrSpends) {
  Simulator sim(1);
  RetryParams rp;
  rp.enabled = true;
  rp.max_attempts = 1000;
  rp.jitter = 0.0;
  rp.budget = false;  // the metastable-collapse knob
  rp.budget_cap = 4.0;
  RetryPolicy pol(rp, sim.rng().Fork());
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(pol.Consider(1, Duration::Zero()).retry) << i;
  }
  const RetrySnapshot snap = pol.Snapshot();
  EXPECT_EQ(snap.granted, 50);
  EXPECT_EQ(snap.denied_budget, 0);
  // Tokens are not spent when the guard is off — no hidden debt.
  EXPECT_DOUBLE_EQ(snap.tokens, 4.0);
}

TEST(RetryBudgetTest, SurfacesInSloSnapshot) {
  Simulator sim(5);
  ClusterParams cp;
  cp.nodes = 4;
  cp.retry.enabled = true;
  KvService svc(sim, cp, std::make_unique<ProportionalSharePolicy>());
  // The plain tracker snapshot knows nothing of the retry policy...
  EXPECT_DOUBLE_EQ(svc.slo().Snapshot().retry_tokens, 0.0);
  // ...the service-level join carries the live bucket state.
  const SloSnapshot snap = svc.SloWithRetry();
  EXPECT_DOUBLE_EQ(snap.retry_tokens, cp.retry.budget_cap);
  EXPECT_EQ(snap.retry_denied_budget, 0);
}

// ---------------------------------------------------------------------------
// Policy engine: eviction inside the gray band, staggered rejuvenation

struct EngineHarness {
  Simulator sim;
  ColumnarFleet fleet;
  KvService svc;
  FaultInjector injector;

  EngineHarness(uint64_t seed, double arrivals = 200.0)
      : sim(seed),
        fleet(sim,
              [&] {
                FleetParams fp;
                fp.arrivals_per_sec = arrivals;
                fp.run_for = Duration::Seconds(20.0);
                fp.read_fraction = 0.5;
                return fp;
              }()),
        svc(sim,
            [&] {
              ClusterParams cp;
              cp.nodes = 4;
              cp.shard.replication = 2;
              cp.write_quorum = 2;
              cp.retry.enabled = true;
              cp.recovery.enabled = true;
              cp.live.enabled = true;
              return cp;
            }(),
            std::make_unique<ProportionalSharePolicy>()),
        injector(sim) {}

  void Run(ResilienceEngine& engine, const std::string& dsl) {
    ApplySchedule(sim, svc, ParseDsl(dsl), injector);
    const SimTime end = At(28.0);
    svc.StartRecovery(end);
    svc.StartTelemetry(end);
    engine.Start(At(20.0));
    fleet.Run(svc, [](const FleetResult&) {});
    sim.Run();
  }
};

TEST(ResilienceEngineTest, PatternsRequireLivePlane) {
  Simulator sim(1);
  ClusterParams cp;
  cp.nodes = 4;  // live plane off
  KvService svc(sim, cp, std::make_unique<ProportionalSharePolicy>());
  FaultInjector injector(sim);
  EvictionParams ev;
  ev.enabled = true;
  EXPECT_THROW(ResilienceEngine(sim, svc, injector, {}, ev),
               std::invalid_argument);
}

TEST(ResilienceEngineTest, EvictionActsInsideTheDetectorBlindBand) {
  EngineHarness h(23);
  EvictionParams ev;
  ev.enabled = true;
  ResilienceEngine engine(h.sim, h.svc, h.injector, {}, ev);

  // Mid-fault probe: the predictive weight-down has engaged while the
  // hysteresis detector still calls the node healthy — a x1.35 stutter
  // sits under its 1.5 enter_deficit by construction.
  PerfState mid_state = PerfState::kFailed;
  double mid_weight = -1.0;
  h.sim.ScheduleAt(At(10.0), [&] {
    mid_state = h.svc.registry().StateOf("node1");
    mid_weight = h.svc.selector().WeightOf(1);
  });
  h.Run(engine, "gray node=1 at=2s for=14s x1.35");

  EXPECT_GE(engine.stats().evictions, 1);
  EXPECT_EQ(mid_state, PerfState::kHealthy);
  EXPECT_DOUBLE_EQ(mid_weight, ev.evict_weight);
  // Whether the score cleared organically or the quiesce pass swept it,
  // every policy-held weight is restored by end of run.
  EXPECT_GE(engine.stats().restores + engine.stats().quiesce_restores, 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(h.svc.selector().WeightOf(i), 1.0) << "node " << i;
  }
}

TEST(ResilienceEngineTest, RejuvenationStaggersProactiveRestarts) {
  EngineHarness h(29);
  RejuvenationParams rj;
  rj.enabled = true;
  ResilienceEngine engine(h.sim, h.svc, h.injector, rj, {});

  // Sample continuously: staggering means never more than one node down.
  int max_down = 0;
  std::function<void()> probe = [&] {
    int down = 0;
    for (int i = 0; i < 4; ++i) {
      down += h.svc.node(i)->has_failed() ? 1 : 0;
    }
    max_down = std::max(max_down, down);
    if (h.sim.Now() < At(27.0)) {
      h.sim.Schedule(Duration::Millis(100), [&] { probe(); });
    }
  };
  h.sim.ScheduleAt(At(0.1), [&] { probe(); });

  // A persistent stutter on node 2 keeps its score above min_score, so the
  // engine restarts it (through the injector: ground truth + the organic
  // detect/eject/repair/ramp lifecycle).
  h.Run(engine, "gray node=2 at=1s for=18s x1.35");

  EXPECT_GE(engine.stats().rejuvenations, 1);
  EXPECT_EQ(max_down, 1);
  EXPECT_GE(h.svc.crashes(), engine.stats().rejuvenations);
  EXPECT_GE(h.svc.recoveries(), engine.stats().rejuvenations);
  // No acked write is lost to a proactive restart, and the fleet converges.
  EXPECT_EQ(h.svc.lost_acked_writes(), 0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(h.svc.node(i)->has_failed()) << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// N-modular redundancy

TEST(NmrTest, FanoutReachesQuorumAndStrideGates) {
  auto run = [](uint64_t stride) {
    Simulator sim(31);
    FleetParams fp;
    fp.arrivals_per_sec = 150.0;
    fp.run_for = Duration::Seconds(5.0);
    fp.read_fraction = 1.0;
    ColumnarFleet fleet(sim, fp);
    ClusterParams cp;
    cp.nodes = 4;
    cp.shard.replication = 2;
    cp.nmr.enabled = true;
    cp.nmr.issue = 2;
    cp.nmr.quorum = 1;
    cp.nmr.key_stride = stride;
    KvService svc(sim, cp, std::make_unique<ProportionalSharePolicy>());
    fleet.Run(svc, [](const FleetResult&) {});
    sim.Run();
    struct {
      int64_t reads, acks, slo_acks;
    } out{svc.nmr_reads(), svc.nmr_acks(), svc.slo().acks()};
    return out;
  };
  const auto all = run(1);
  EXPECT_GT(all.reads, 0);
  EXPECT_GT(all.acks, 0);
  EXPECT_LE(all.acks, all.reads);
  EXPECT_GT(all.slo_acks, 0);
  // Stride 4 designates a quarter of the key space as the NMR read class.
  const auto quarter = run(4);
  EXPECT_GT(quarter.reads, 0);
  EXPECT_LT(quarter.reads, all.reads / 2);
}

// ---------------------------------------------------------------------------
// Checkpoint/rollback determinism

TEST(CheckpointTest, CrashAtEveryBoundaryReplaysToUncrashedDigest) {
  ResilienceCampaignParams p;
  // Trimmed workloads keep 2 x 6 cells x (3 + phases) runs quick; a 1 MB
  // image keeps the commit cost small against the trimmed phases so the
  // rollback-beats-full-rerun comparison still measures the pattern.
  p.sort.total_records = 1 << 17;
  p.transpose.bytes_per_pair = 8 << 20;
  p.checkpoint.image_mb = 1.0;
  for (int workload = 0; workload < 2; ++workload) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const CheckpointCellOutcome o = RunCheckpointCell(p, workload, seed);
      EXPECT_TRUE(o.ok) << (workload == 0 ? "sort" : "transpose") << " seed "
                        << seed << ": "
                        << (o.violations.empty() ? "" : o.violations[0]);
      EXPECT_EQ(o.digest_ckpt, o.digest_plain);
      EXPECT_EQ(o.boundaries_tested, p.checkpoint.phases);
      EXPECT_GT(o.digest_plain, 0u);
      // Checkpoints cost time uncrashed but bound the crashed replay;
      // without them a mid-run crash replays everything.
      EXPECT_GT(o.makespan_ckpt_s, o.makespan_plain_s);
      EXPECT_LT(o.crashed_ckpt_s, o.crashed_plain_s);
    }
  }
}

TEST(CheckpointTest, UncheckpointedCrashLosesAllCommittedPhases) {
  Simulator sim(1);
  SwitchParams np;
  np.ports = 4;
  Switch net(sim, np);
  TransposeParams tp;
  tp.bytes_per_pair = 4 << 20;
  CheckpointParams cp;
  cp.phases = 4;
  cp.enabled = false;
  cp.crash_at_boundary = 2;
  const CheckpointStats st = RunCheckpointedTranspose(sim, tp, cp, net, 4);
  EXPECT_TRUE(st.ok);
  EXPECT_EQ(st.crashes, 1);
  // Phases 0..2 all replay: nothing was durable.
  EXPECT_EQ(st.phases_replayed, 3);
  EXPECT_EQ(st.checkpoints_written, 0);
}

// ---------------------------------------------------------------------------
// The ablation campaign: determinism and the metastable demonstration

ResilienceCampaignParams SmallCampaign() {
  ResilienceCampaignParams p;
  p.seeds = 2;
  p.checkpoint_seeds = 1;
  p.sort.total_records = 1 << 17;
  p.transpose.bytes_per_pair = 8 << 20;
  return p;
}

// One control-plane cell per scenario, pinned by fire digest: every
// repair, heartbeat and telemetry event lands on the same (when, seq) as
// in the reference run, so bookkeeping changes must not move any event.
TEST(ResilienceCampaignTest, ControlPlaneCellDigestsArePinned) {
  ResilienceCampaignParams p;
  p.control_plane = true;
  // Fire digest (event order) and outcome digest (every op's key, issue
  // and completion instant, outcome, attempts) per scenario cell.
  const struct {
    ResilienceScenario scenario;
    uint64_t digest;
    uint64_t outcome_digest;
  } kPinned[] = {
      {ResilienceScenario::kClean, 0x3ee4763e98d091aeULL,
       0xe4f9b8451878755bULL},
      {ResilienceScenario::kGray, 0x829fbafaf0ffdce0ULL,
       0xace752c6e791246aULL},
      {ResilienceScenario::kCorrelated, 0x2399f386d25b6fadULL,
       0x7c8e36b89dcac2b4ULL},
      {ResilienceScenario::kRetryStorm, 0x44b002fc4c0eca54ULL,
       0xf677e8ba17fd193aULL},
  };
  for (const auto& pin : kPinned) {
    const ResilienceCellOutcome o =
        RunResilienceCell(p, pin.scenario, ResiliencePattern::kNone, 1);
    EXPECT_EQ(o.fire_digest, pin.digest)
        << ResilienceScenarioName(pin.scenario);
    EXPECT_EQ(o.outcome_digest, pin.outcome_digest)
        << ResilienceScenarioName(pin.scenario);
  }
}

TEST(ResilienceCampaignTest, ScorecardByteIdenticalAcrossThreadCounts) {
  ResilienceCampaignParams p = SmallCampaign();
  p.threads = 1;
  const ResilienceCampaignResult one = RunResilienceCampaign(p);
  p.threads = 4;
  const ResilienceCampaignResult four = RunResilienceCampaign(p);
  EXPECT_EQ(one.ScorecardJson(), four.ScorecardJson());
  EXPECT_EQ(one.violations, 0);
  ASSERT_EQ(one.outcomes.size(),
            static_cast<size_t>(kResilienceScenarios * kResiliencePatterns *
                                p.seeds));
  for (size_t i = 0; i < one.outcomes.size(); ++i) {
    EXPECT_EQ(one.outcomes[i].fire_digest, four.outcomes[i].fire_digest)
        << "cell " << i;
  }
}

TEST(ResilienceCampaignTest, RetryStormCollapsesWithoutBudgetNotWithIt) {
  const ResilienceCampaignParams p = SmallCampaign();
  const ResilienceCampaignResult res = RunResilienceCampaign(p);
  const int storm = static_cast<int>(ResilienceScenario::kRetryStorm);
  for (int i = 0; i < p.seeds; ++i) {
    const ResilienceCellOutcome& naive = res.outcomes[res.CellIndex(
        storm, static_cast<int>(ResiliencePattern::kNone), i)];
    ASSERT_TRUE(naive.storm);
    EXPECT_TRUE(naive.collapsed)
        << "seed " << naive.seed << " pre " << naive.pre_storm_rate
        << " post " << naive.post_storm_rate;
    EXPECT_EQ(naive.denied_budget, 0);  // the brake was really off

    const ResilienceCellOutcome& braked = res.outcomes[res.CellIndex(
        storm, static_cast<int>(ResiliencePattern::kBudget), i)];
    ASSERT_TRUE(braked.storm);
    EXPECT_FALSE(braked.collapsed)
        << "seed " << braked.seed << " pre " << braked.pre_storm_rate
        << " post " << braked.post_storm_rate;
    EXPECT_TRUE(braked.ok);
    EXPECT_GT(braked.denied_budget, 0);  // the brake visibly engaged
  }
}

TEST(ResilienceCampaignTest, PatternsActInTheirScenarios) {
  const ResilienceCampaignParams p = SmallCampaign();
  const ResilienceCampaignResult res = RunResilienceCampaign(p);
  int rejuvenations = 0, evictions = 0;
  int64_t nmr_reads = 0;
  for (int s = 0; s < kResilienceScenarios; ++s) {
    for (int i = 0; i < p.seeds; ++i) {
      rejuvenations +=
          res.outcomes[res.CellIndex(
                           s, static_cast<int>(
                                  ResiliencePattern::kRejuvenation), i)]
              .rejuvenations;
      evictions += res.outcomes[res.CellIndex(
                                    s, static_cast<int>(
                                           ResiliencePattern::kEviction), i)]
                       .evictions;
      nmr_reads += res.outcomes[res.CellIndex(
                                    s,
                                    static_cast<int>(ResiliencePattern::kNmr),
                                    i)]
                       .nmr_reads;
    }
  }
  EXPECT_GE(rejuvenations, 1);
  EXPECT_GE(evictions, 1);
  EXPECT_GT(nmr_reads, 0);
  // Disabled-pattern cells never act.
  for (int s = 0; s < kResilienceScenarios; ++s) {
    for (int i = 0; i < p.seeds; ++i) {
      const ResilienceCellOutcome& o = res.outcomes[res.CellIndex(
          s, static_cast<int>(ResiliencePattern::kNone), i)];
      EXPECT_EQ(o.rejuvenations, 0);
      EXPECT_EQ(o.evictions, 0);
      EXPECT_EQ(o.nmr_reads, 0);
    }
  }
}

}  // namespace
}  // namespace fst

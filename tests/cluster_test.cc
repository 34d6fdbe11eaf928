// Tests for the sharded, replicated, fail-stutter-aware serving layer.
//
// The headline test reproduces the paper's Section 3.1 resource argument
// quantitatively at serving scale: under a persistent single-replica
// stutter with the cluster loaded past what N-1 nodes can carry,
// proportional-share routing sustains strictly higher SLO goodput than
// both eject-on-stutter and ignore-stutter, with closed-form bounds on
// each design's goodput.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/fleet/fleet.h"
#include "src/cluster/selector.h"
#include "src/devices/modulators.h"
#include "src/faults/catalog.h"
#include "src/harness/sweep.h"
#include "src/workload/dds.h"
#include "tests/test_util.h"

namespace fst {
namespace {

// ---------------------------------------------------------------------------
// ShardMap
// ---------------------------------------------------------------------------

TEST(ShardMapTest, ReplicaSetsAreDistinctAndDeterministic) {
  ShardMap a(8, {64, 3});
  ShardMap b(8, {64, 3});
  for (uint64_t key = 0; key < 256; ++key) {
    const auto ra = a.ReplicasFor(key);
    ASSERT_EQ(ra.size(), 3u);
    EXPECT_NE(ra[0], ra[1]);
    EXPECT_NE(ra[0], ra[2]);
    EXPECT_NE(ra[1], ra[2]);
    EXPECT_EQ(ra, b.ReplicasFor(key));
  }
}

TEST(ShardMapTest, OwnershipIsRoughlyBalanced) {
  ShardMap map(8, {128, 2});
  for (int n = 0; n < 8; ++n) {
    const double share = map.OwnershipShare(n, 8192);
    EXPECT_GT(share, 0.06) << "node " << n;
    EXPECT_LT(share, 0.20) << "node " << n;
  }
}

TEST(ShardMapTest, EjectMovesOnlyTheEjectedNodesKeys) {
  ShardMap map(6, {64, 2});
  std::vector<std::vector<int>> before;
  for (uint64_t key = 0; key < 512; ++key) {
    before.push_back(map.ReplicasFor(key));
  }
  map.Eject(2);
  EXPECT_EQ(map.live_nodes(), 5);
  int moved = 0;
  for (uint64_t key = 0; key < 512; ++key) {
    const auto after = map.ReplicasFor(key);
    const auto& was = before[key];
    const bool had2 = std::find(was.begin(), was.end(), 2) != was.end();
    if (!had2) {
      // Minimal disruption: untouched keys keep their exact replica sets.
      EXPECT_EQ(after, was) << "key " << key;
    } else {
      ++moved;
      EXPECT_EQ(after.size(), 2u);
      EXPECT_EQ(std::find(after.begin(), after.end(), 2), after.end());
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(ShardMapTest, RestoreRoundTripsExactly) {
  ShardMap map(6, {64, 2});
  std::vector<std::vector<int>> before;
  for (uint64_t key = 0; key < 256; ++key) {
    before.push_back(map.ReplicasFor(key));
  }
  map.Eject(3);
  map.Uneject(3);
  EXPECT_EQ(map.rebalances(), 2);
  for (uint64_t key = 0; key < 256; ++key) {
    EXPECT_EQ(map.ReplicasFor(key), before[key]);
  }
}

// Ownership witness: FNV-1a over (set size, members...) of probe keys
// 0..samples-1, each value as 8 little-endian bytes, folded from the
// per-key lookup.
uint64_t ReferenceOwnershipDigest(const ShardMap& map, int samples) {
  uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (int i = 0; i < samples; ++i) {
    const std::vector<int> replicas = map.ReplicasFor(static_cast<uint64_t>(i));
    fold(replicas.size());
    for (const int r : replicas) {
      fold(static_cast<uint64_t>(r));
    }
  }
  return h;
}

TEST(ShardMapTest, EjectUnejectIsIdentityUnderRandomInterleavings) {
  ShardMap map(6, {64, 3});
  const uint64_t baseline = ReferenceOwnershipDigest(map, 2048);
  Rng rng(12345);
  for (int trial = 0; trial < 25; ++trial) {
    // Eject a random subset in random order (always leaving at least one
    // node live), then uneject in an independently shuffled order. Any
    // interleaving must restore ownership byte-for-byte.
    std::vector<int> ejected;
    const int wanted = 1 + static_cast<int>(rng.UniformInt(0, 4));
    for (int i = 0; i < wanted; ++i) {
      const int node = static_cast<int>(rng.UniformInt(0, 5));
      if (!map.IsEjected(node) && map.live_nodes() > 1) {
        map.Eject(node);
        ejected.push_back(node);
      }
    }
    ASSERT_FALSE(ejected.empty());
    EXPECT_NE(ReferenceOwnershipDigest(map, 2048), baseline)
        << "trial " << trial;
    for (size_t i = ejected.size(); i > 1; --i) {
      std::swap(ejected[i - 1],
                ejected[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
    for (const int node : ejected) {
      map.Uneject(node);
    }
    EXPECT_EQ(ReferenceOwnershipDigest(map, 2048), baseline)
        << "trial " << trial;
    EXPECT_EQ(map.live_nodes(), 6) << "trial " << trial;
  }
}

// SameOwnership, the exact check the campaigns use, agrees with every
// key's replica set: two maps with the same ring own keys identically
// exactly when they eject the same nodes.
TEST(ShardMapTest, SameOwnershipIffEjectedMasksMatch) {
  ShardMap a(6, {64, 3});
  ShardMap b(6, {64, 3});
  Rng rng(777);
  for (int step = 0; step < 200; ++step) {
    ShardMap& m = rng.UniformDouble() < 0.5 ? a : b;
    const int node = static_cast<int>(rng.UniformInt(0, 5));
    if (m.IsEjected(node)) {
      m.Uneject(node);
    } else if (m.live_nodes() > 1) {
      m.Eject(node);
    }
    bool same_sets = true;
    for (uint64_t key = 0; key < 512; ++key) {
      same_sets = same_sets && a.ReplicasFor(key) == b.ReplicasFor(key);
    }
    EXPECT_EQ(a.SameOwnership(b), same_sets) << "step " << step;
  }
  EXPECT_FALSE(ShardMap(6, {64, 3}).SameOwnership(ShardMap(6, {32, 3})));
  EXPECT_FALSE(ShardMap(6, {64, 3}).SameOwnership(ShardMap(6, {64, 2})));
  EXPECT_FALSE(ShardMap(6, {64, 3}).SameOwnership(ShardMap(7, {64, 3})));
}

TEST(ShardMapTest, AllNodesEjectedYieldsEmptySets) {
  ShardMap map(3, {16, 2});
  map.Eject(0);
  map.Eject(1);
  map.Eject(2);
  EXPECT_EQ(map.live_nodes(), 0);
  EXPECT_TRUE(map.ReplicasFor(42).empty());
}

// ---------------------------------------------------------------------------
// ReplicaSelector
// ---------------------------------------------------------------------------

TEST(SelectorTest, ZeroWeightCandidatesAreDropped) {
  ReplicaSelector sel(RouteMode::kUniform, 4, Rng(1));
  sel.SetWeight(2, 0.0);
  for (int i = 0; i < 32; ++i) {
    const auto ranked = sel.Rank({1, 2, 3}, nullptr);
    ASSERT_EQ(ranked.size(), 2u);
    EXPECT_EQ(std::find(ranked.begin(), ranked.end(), 2), ranked.end());
  }
}

TEST(SelectorTest, QueueAwareRoutingPrefersShallowQueues) {
  ReplicaSelector sel(RouteMode::kQueueWeighted, 2, Rng(2));
  int shallow_first = 0;
  for (int i = 0; i < 400; ++i) {
    const auto ranked = sel.Rank({0, 1}, [](int n) { return n == 0 ? 12 : 0; });
    if (ranked.front() == 1) {
      ++shallow_first;
    }
  }
  EXPECT_GT(shallow_first, 320);  // 13:1 score ratio -> ~92% expected
}

TEST(SelectorTest, PolicyWeightBiasesSelection) {
  ReplicaSelector sel(RouteMode::kWeighted, 2, Rng(3));
  sel.SetWeight(1, 0.1);
  int heavy_first = 0;
  for (int i = 0; i < 400; ++i) {
    if (sel.Rank({0, 1}, nullptr).front() == 0) {
      ++heavy_first;
    }
  }
  EXPECT_GT(heavy_first, 320);  // 10:1 weight ratio -> ~91% expected
}

TEST(SelectorTest, UniformModeIgnoresWeightMagnitudeAndDepth) {
  ReplicaSelector sel(RouteMode::kUniform, 2, Rng(4));
  sel.SetWeight(1, 0.05);  // nonzero: still a full-share candidate
  int first = 0;
  for (int i = 0; i < 1000; ++i) {
    if (sel.Rank({0, 1}, [](int n) { return n == 0 ? 50 : 0; }).front() == 0) {
      ++first;
    }
  }
  EXPECT_GT(first, 420);
  EXPECT_LT(first, 580);
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(AdmissionTest, CapsOutstandingAndReleases) {
  AdmissionController adm(2, {3});
  EXPECT_TRUE(adm.TryAdmit(0));
  EXPECT_TRUE(adm.TryAdmit(0));
  EXPECT_TRUE(adm.TryAdmit(0));
  EXPECT_FALSE(adm.TryAdmit(0));  // at cap
  EXPECT_TRUE(adm.TryAdmit(1));   // caps are per node
  EXPECT_EQ(adm.outstanding(0), 3);
  adm.Release(0);
  EXPECT_EQ(adm.outstanding(0), 2);
  EXPECT_TRUE(adm.TryAdmit(0));
  EXPECT_EQ(adm.admitted(), 5);
  EXPECT_EQ(adm.rejected(), 1);
}

TEST(AdmissionTest, TracksRejectionsPerNode) {
  AdmissionController adm(3, {2});
  EXPECT_TRUE(adm.TryAdmit(0));
  EXPECT_TRUE(adm.TryAdmit(0));
  EXPECT_FALSE(adm.TryAdmit(0));
  EXPECT_FALSE(adm.TryAdmit(0));
  EXPECT_TRUE(adm.TryAdmit(1));
  EXPECT_TRUE(adm.TryAdmit(2));
  EXPECT_TRUE(adm.TryAdmit(2));
  EXPECT_FALSE(adm.TryAdmit(2));
  // The aggregate matches, and the per-node split shows where the back
  // pressure concentrates — the signature of a single stuttering node.
  EXPECT_EQ(adm.rejected(), 3);
  EXPECT_EQ(adm.rejected(0), 2);
  EXPECT_EQ(adm.rejected(1), 0);
  EXPECT_EQ(adm.rejected(2), 1);
}

// ---------------------------------------------------------------------------
// SloTracker
// ---------------------------------------------------------------------------

TEST(SloTest, SplitsAcksIntoGoodputAndLate) {
  SloTracker slo(Duration::Millis(100));
  for (int i = 0; i < 9; ++i) {
    slo.RecordArrival();
  }
  for (int i = 0; i < 5; ++i) {
    slo.RecordAck(Duration::Millis(10));
  }
  for (int i = 0; i < 2; ++i) {
    slo.RecordAck(Duration::Millis(500));
  }
  slo.RecordShed();
  slo.RecordError();
  EXPECT_EQ(slo.acks(), 7);
  EXPECT_EQ(slo.goodput(), 5);
  EXPECT_EQ(slo.late(), 2);
  EXPECT_EQ(slo.shed(), 1);
  EXPECT_EQ(slo.errors(), 1);
  EXPECT_NEAR(slo.ShedRate(), 1.0 / 9.0, 1e-9);
  EXPECT_NEAR(slo.GoodputPerSec(Duration::Seconds(5.0)), 1.0, 1e-9);
  // p50 over {5x10ms, 2x500ms} is in the 10ms bucket; p999 in the 500ms one.
  EXPECT_LT(slo.P50Ms(), 11.0);
  EXPECT_GT(slo.P999Ms(), 490.0);
  const std::string json = slo.ReportJson(Duration::Seconds(5.0));
  EXPECT_NE(json.find("\"goodput\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shed_rate\": 0.1111"), std::string::npos) << json;
}

TEST(SloTest, SplitsOutcomesByRetryDisposition) {
  SloTracker slo(Duration::Millis(100));
  for (int i = 0; i < 6; ++i) {
    slo.RecordArrival();
  }
  slo.RecordAck(Duration::Millis(10));      // first-try success
  slo.RecordAck(Duration::Millis(10), 3);   // succeeded on the third attempt
  slo.RecordAck(Duration::Millis(500), 2);  // retried success, late
  slo.RecordError(4);                       // burned every attempt
  slo.RecordError();                        // failed without retrying
  slo.RecordShed(2);                        // shed after one retry
  EXPECT_EQ(slo.first_try_acks(), 1);
  EXPECT_EQ(slo.retried_acks(), 2);
  // Exhausted = terminal failures that consumed retries.
  EXPECT_EQ(slo.exhausted(), 2);
  // Extra attempts across all ops: 2 + 1 + 3 + 0 + 1.
  EXPECT_EQ(slo.retries(), 7);
  const std::string json = slo.ReportJson(Duration::Seconds(1.0));
  EXPECT_NE(json.find("\"first_try_acks\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"retried_acks\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"exhausted\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"retries\": 7"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// End-to-end serving runs
// ---------------------------------------------------------------------------

std::unique_ptr<ReactionPolicy> MakePolicy(int kind) {
  switch (kind) {
    case 0:
      return std::make_unique<IgnoreStutterPolicy>();
    case 1:
      return std::make_unique<EjectOnStutterPolicy>();
    default:
      return std::make_unique<ProportionalSharePolicy>(8.0);
  }
}

// The fail-stop designs (ignore, eject) route with no performance
// information; the fail-stutter design consumes reweights + queue depth.
RouteMode RouteFor(int kind) {
  return kind == 2 ? RouteMode::kQueueWeighted : RouteMode::kUniform;
}

struct ServeOut {
  int64_t arrivals = 0;
  int64_t acks = 0;
  int64_t goodput = 0;
  int64_t late = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  int ejections = 0;
  int reweights = 0;
  int rebalances = 0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  uint64_t digest = 0;
  uint64_t outcome_digest = 0;
  HedgeStats hedge;
  int64_t rejected = 0;  // admission refusals, all nodes
  std::string json;
};

struct ServeConfig {
  int policy = 2;
  uint64_t seed = 1;
  double slow_factor = 1.0;     // persistent slowdown on node 0
  double lambda = 320.0;
  double seconds = 30.0;
  bool hedge = false;
  Duration hedge_delay = Duration::Millis(60);
  int max_hedges = 1;
  int replication = 2;
  bool gc_fault = false;        // Gribble GC pauses on node 0 instead
  SimTime crash_at;             // > 0: fail-stop node 0 at this time
  // > 0: node 0 restarts at this time, and the crash-recovery lifecycle
  // (heartbeats, rejoin) runs so the restarted node is un-ejected.
  SimTime restart_at;
};

ServeOut RunServe(const ServeConfig& cfg) {
  Simulator sim(cfg.seed);
  FleetParams fp;
  fp.arrivals_per_sec = cfg.lambda;
  fp.run_for = Duration::Seconds(cfg.seconds);
  fp.read_fraction = 1.0;
  fp.zipf_s = 0.0;  // uniform keys keep the closed form clean
  ColumnarFleet fleet(sim, fp);

  ClusterParams cp;
  cp.nodes = 4;
  cp.shard.replication = cfg.replication;
  cp.node.cpu_rate = 1e6;
  cp.read_work = 10000.0;  // 10 ms/op -> 100 ops/s/node
  cp.admission.max_outstanding_per_node = 24;
  cp.slo_deadline = Duration::Millis(300);
  cp.route = RouteFor(cfg.policy);
  cp.hedge_reads = cfg.hedge;
  cp.hedge = HedgeParams{cfg.hedge_delay, cfg.max_hedges};
  cp.recovery.enabled = cfg.restart_at > SimTime::Zero();
  KvService svc(sim, cp, MakePolicy(cfg.policy));

  if (cfg.slow_factor > 1.0) {
    svc.node(0)->AttachModulator(
        std::make_shared<ConstantFactorModulator>(cfg.slow_factor));
  }
  if (cfg.gc_fault) {
    svc.node(0)->AttachModulator(MakeGarbageCollector(
        sim.rng().Fork(), Duration::Seconds(1.0), Duration::Millis(500)));
  }
  if (cfg.crash_at > SimTime::Zero()) {
    sim.ScheduleAt(cfg.crash_at, [&svc]() { svc.node(0)->FailStop(); });
  }
  if (cp.recovery.enabled) {
    sim.ScheduleAt(cfg.restart_at, [&svc]() { svc.node(0)->Restart(); });
    svc.StartRecovery(SimTime::Zero() + fp.run_for);
  }

  bool finished = false;
  fleet.Run(svc, [&](const FleetResult&) { finished = true; });
  sim.Run();
  EXPECT_TRUE(finished) << "fleet did not drain";

  ServeOut out;
  out.arrivals = svc.slo().arrivals();
  out.acks = svc.slo().acks();
  out.goodput = svc.slo().goodput();
  out.late = svc.slo().late();
  out.shed = svc.slo().shed();
  out.errors = svc.slo().errors();
  out.ejections = svc.ejections();
  out.reweights = svc.reweights();
  out.rebalances = svc.shard_map().rebalances();
  out.p99_ms = svc.slo().P99Ms();
  out.p999_ms = svc.slo().P999Ms();
  out.digest = sim.fire_digest();
  out.outcome_digest = svc.outcome_digest();
  out.hedge = svc.hedge_stats();
  out.rejected = svc.admission().rejected();
  out.json = svc.slo().ReportJson(fp.run_for);
  return out;
}

// The paper's quantitative claim (Sections 2.2.1 + 3.1), with closed-form
// bounds. Scenario: N = 4 nodes at mu = 100 ops/s each, R = 2, node 0
// persistently slowed by s = 2 (capacity mu/s = 50 ops/s), open-loop
// lambda = 320 ops/s for T = 30 s, admission depth d = 24, deadline 300 ms.
//   proportional-share: effective capacity (N-1)*mu + mu/s = 350 > lambda,
//     and queue-aware routing keeps sojourns well under the deadline
//     -> goodput ~= lambda*T;
//   eject-on-stutter: capacity drops to (N-1)*mu = 300 < lambda
//     -> goodput ~= (N-1)*mu*T, the slow node's 50 ops/s wasted;
//   ignore-stutter: the slow node's bounded queue stays pinned at the
//     admission cap, so everything it serves waits ~d*s/mu = 480 ms > SLO
//     -> goodput <~ (lambda - mu/s)*T.
TEST(ClusterPolicyTest, ProportionalShareBeatsEjectAndIgnoreUnderStutter) {
  constexpr double kMu = 100.0, kLambda = 320.0, kT = 30.0, kS = 2.0;
  constexpr int kN = 4;

  ServeConfig cfg;
  cfg.slow_factor = kS;
  cfg.lambda = kLambda;
  cfg.seconds = kT;
  cfg.seed = 7;

  cfg.policy = 0;
  const ServeOut ignore = RunServe(cfg);
  cfg.policy = 1;
  const ServeOut eject = RunServe(cfg);
  cfg.policy = 2;
  const ServeOut prop = RunServe(cfg);

  // Identical seeds -> identical arrival processes across designs.
  ASSERT_EQ(ignore.arrivals, eject.arrivals);
  ASSERT_EQ(ignore.arrivals, prop.arrivals);
  const double arrivals = static_cast<double>(prop.arrivals);
  EXPECT_NEAR(arrivals, kLambda * kT, 4.0 * std::sqrt(kLambda * kT));

  // Closed-form bounds on each design.
  const double eject_bound = (kN - 1) * kMu * kT;
  const double ignore_bound = (kLambda - kMu / kS) * kT;
  EXPECT_GE(prop.goodput, 0.95 * arrivals);
  EXPECT_LE(eject.goodput, 1.03 * eject_bound);
  EXPECT_GE(eject.goodput, 0.90 * eject_bound);
  EXPECT_LE(ignore.goodput, 1.03 * ignore_bound);

  // The headline: strictly higher goodput than both fail-stop designs, by
  // at least a third of each closed-form gap.
  EXPECT_GT(prop.goodput, eject.goodput);
  EXPECT_GT(prop.goodput, ignore.goodput);
  EXPECT_GE(prop.goodput - eject.goodput,
            0.3 * (kLambda * kT - eject_bound));
  EXPECT_GE(prop.goodput - ignore.goodput,
            0.3 * (kLambda * kT - ignore_bound));

  // Design signatures: eject ejected the stutterer, proportional reweighted
  // without ejecting, ignore did nothing.
  EXPECT_GE(eject.ejections, 1);
  EXPECT_EQ(prop.ejections, 0);
  EXPECT_GE(prop.reweights, 1);
  EXPECT_EQ(ignore.ejections, 0);
  EXPECT_EQ(ignore.reweights, 0);
}

// Same cluster under the literal Section 2.2.1 fault: GC pauses on one
// replica (500 ms pauses at ~1 s mean intervals — the node averages ~2x
// slow, but in bursts rather than persistently). Two mechanically robust
// effects at moderate load:
//   * goodput: every performance-aware design (reweight, eject, hedge)
//     dodges most of each pause, while ignore keeps feeding the paused
//     node's bounded queue and pays deadline misses every single pause;
//   * tail latency: routing cannot rescue a read *already dispatched* into
//     a pause — only request-level hedging can, so the hedged design's ack
//     p99 collapses from pause-scale to hedge-delay-scale.
TEST(ClusterPolicyTest, StutterAwareDesignsContainGcPauses) {
  ServeConfig cfg;
  cfg.gc_fault = true;
  cfg.lambda = 240.0;
  cfg.seconds = 30.0;
  cfg.seed = 9;

  cfg.policy = 0;
  const ServeOut ignore = RunServe(cfg);
  cfg.policy = 1;
  const ServeOut eject = RunServe(cfg);
  cfg.policy = 2;
  const ServeOut prop = RunServe(cfg);
  cfg.hedge = true;
  const ServeOut hedged = RunServe(cfg);

  SCOPED_TRACE(::testing::Message()
               << "goodput ignore=" << ignore.goodput
               << " eject=" << eject.goodput << " prop=" << prop.goodput
               << " hedged=" << hedged.goodput << " | late ignore="
               << ignore.late << " prop=" << prop.late
               << " hedged=" << hedged.late << " | p999_ms ignore="
               << ignore.p999_ms << " prop=" << prop.p999_ms
               << " hedged=" << hedged.p999_ms);
  // Goodput: ignore is strictly worst, by a margin (~1.5 pauses' worth).
  EXPECT_GT(prop.goodput, ignore.goodput + 100);
  EXPECT_GT(eject.goodput, ignore.goodput + 100);
  EXPECT_GT(hedged.goodput, ignore.goodput + 100);
  // Tail: only hedging rescues reads already trapped behind a pause, so
  // its extreme tail drops from pause scale to bounded-queue scale and no
  // hedged read misses the deadline at all.
  EXPECT_LT(hedged.late, prop.late);
  EXPECT_LT(hedged.p999_ms, 0.6 * prop.p999_ms);
  EXPECT_LE(hedged.p999_ms, 300.0);
}

TEST(ClusterFaultTest, CrashedReplicaIsEjectedAndServiceRecovers) {
  ServeConfig cfg;
  cfg.policy = 2;
  cfg.lambda = 200.0;  // under the 300 ops/s capacity of the survivors
  cfg.seconds = 15.0;
  cfg.seed = 11;
  cfg.crash_at = SimTime::Zero() + Duration::Seconds(5.0);
  const ServeOut out = RunServe(cfg);

  EXPECT_GE(out.ejections, 1);  // kFailed -> eject under every policy
  EXPECT_GT(out.errors, 0);
  // Fail-stop is contained: only requests in flight at the crash error out.
  EXPECT_LE(out.errors, 30);
  EXPECT_GE(out.goodput, static_cast<int64_t>(0.9 * out.arrivals));
}

TEST(ClusterHedgeTest, HedgedReadsEngageAndReconcile) {
  ServeConfig cfg;
  cfg.policy = 2;
  cfg.hedge = true;
  cfg.slow_factor = 8.0;
  cfg.lambda = 150.0;
  cfg.seconds = 10.0;
  cfg.seed = 13;

  Simulator sim(cfg.seed);
  FleetParams fp;
  fp.arrivals_per_sec = cfg.lambda;
  fp.run_for = Duration::Seconds(cfg.seconds);
  fp.zipf_s = 0.0;
  ColumnarFleet fleet(sim, fp);
  ClusterParams cp;
  cp.nodes = 4;
  cp.route = RouteMode::kQueueWeighted;
  cp.hedge_reads = true;
  cp.hedge = HedgeParams{Duration::Millis(30), 1};
  KvService svc(sim, cp, MakePolicy(2));
  svc.node(0)->AttachModulator(
      std::make_shared<ConstantFactorModulator>(cfg.slow_factor));
  bool finished = false;
  fleet.Run(svc, [&](const FleetResult&) { finished = true; });
  RunAndExpect(sim, finished);

  EXPECT_GT(svc.hedge_stats().operations, 0);
  EXPECT_GT(svc.hedge_stats().hedges_launched, 0);
  EXPECT_EQ(svc.slo().acks() + svc.slo().shed() + svc.slo().errors(),
            svc.slo().arrivals());
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

// Golden digests of one full serving run (seed 21, GC fault, proportional
// share). The fire digest pins the entire event sequence — scheduler,
// switch, nodes, detector windows, policy reactions — so cluster changes
// cannot silently reorder the serving path. The outcome digest pins every
// op's key, issue and completion instant, outcome and attempt count: a
// change may re-pin the fire digest only if it leaves this one alone.
constexpr uint64_t kServeRunDigest = 0x6cb60e02c5d0a77fULL;
constexpr uint64_t kServeRunOutcomeDigest = 0xa08e71f524d0caf9ULL;

TEST(ClusterDeterminismTest, ServingRunsAreBitIdenticalAndPinned) {
  ServeConfig cfg;
  cfg.policy = 2;
  cfg.gc_fault = true;
  cfg.lambda = 200.0;
  cfg.seconds = 5.0;
  cfg.seed = 21;
  const ServeOut a = RunServe(cfg);
  const ServeOut b = RunServe(cfg);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.digest, kServeRunDigest)
      << "serving-path event order changed; if intentional, re-pin with the "
         "new digest: 0x" << std::hex << a.digest;
  EXPECT_EQ(a.outcome_digest, kServeRunOutcomeDigest)
      << "op outcomes changed: 0x" << std::hex << a.outcome_digest;
}

// Golden digest of a plain-service run that ejects and un-ejects (seed
// 21, eject-on-stutter): node 0 crashes and is ejected, then restarts and
// rejoins, so reads route across ShardMap epoch moves, not only across
// the weight changes kServeRunDigest pins. Routing that kept using a
// replica set after the ring moved changes this digest but not that one.
constexpr uint64_t kEjectRunDigest = 0xe5071acac74f7934ULL;
constexpr uint64_t kEjectRunOutcomeDigest = 0x87411fe9afeb4b1eULL;

TEST(ClusterDeterminismTest, EjectingRunIsBitIdenticalAndPinned) {
  ServeConfig cfg;
  cfg.policy = 1;
  cfg.lambda = 200.0;
  cfg.seconds = 5.0;
  cfg.seed = 21;
  cfg.crash_at = SimTime::Zero() + Duration::Seconds(1.5);
  cfg.restart_at = SimTime::Zero() + Duration::Seconds(3.0);
  const ServeOut a = RunServe(cfg);
  const ServeOut b = RunServe(cfg);
  EXPECT_GE(a.rebalances, 2) << "the run must eject and un-eject";
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.digest, kEjectRunDigest)
      << "serving-path event order changed; if intentional, re-pin with the "
         "new digest: 0x" << std::hex << a.digest << std::dec
      << " rebalances=" << a.rebalances;
  EXPECT_EQ(a.outcome_digest, kEjectRunOutcomeDigest)
      << "op outcomes changed: 0x" << std::hex << a.outcome_digest;
}

// The serving run above with hedged reads (R = 2, one hedge after 60 ms):
// the GC pauses stall node 0 past the hedge delay, so hedge timers fire,
// duplicates win, and late answers are reconciled as waste.
constexpr uint64_t kHedgedRunDigest = 0xe403dffc51502f5bULL;
constexpr uint64_t kHedgedRunOutcomeDigest = 0x41cb70803a55b288ULL;

TEST(ClusterDeterminismTest, HedgedRunIsPinned) {
  ServeConfig cfg;
  cfg.policy = 2;
  cfg.gc_fault = true;
  cfg.hedge = true;
  cfg.lambda = 200.0;
  cfg.seconds = 5.0;
  cfg.seed = 21;
  const ServeOut a = RunServe(cfg);
  EXPECT_EQ(a.digest, kHedgedRunDigest) << "0x" << std::hex << a.digest;
  EXPECT_EQ(a.outcome_digest, kHedgedRunOutcomeDigest)
      << "0x" << std::hex << a.outcome_digest;
  EXPECT_EQ(a.hedge.operations, 1030);
  EXPECT_EQ(a.hedge.hedges_launched, 33);
  EXPECT_EQ(a.hedge.hedge_wins, 32);
  EXPECT_EQ(a.hedge.wasted_completions, 33);
}

// Hedged failover under fail-stop: R = 3, up to two hedges, node 0 crashes
// at 1 s under a load the three survivors cannot carry. The hedge delay
// outlasts any op (an admitted sojourn is at most 24 x 10 ms), so every
// hedge launched is a failover after a failed answer: node 0's failures,
// or a candidate at its admission cap. Every read is hedged (at least
// three replicas always rank), so every admission refusal is a hedged
// launch that could not be admitted and every failed op exhausted its
// candidates.
constexpr uint64_t kHedgedFailoverDigest = 0xef8656be02bea496ULL;
constexpr uint64_t kHedgedFailoverOutcomeDigest = 0x1f4e6be47c24a37eULL;

TEST(ClusterDeterminismTest, HedgedFailoverRunIsPinned) {
  ServeConfig cfg;
  cfg.policy = 2;
  cfg.hedge = true;
  cfg.hedge_delay = Duration::Seconds(1.0);
  cfg.max_hedges = 2;
  cfg.replication = 3;
  cfg.lambda = 360.0;
  cfg.seconds = 5.0;
  cfg.seed = 21;
  cfg.crash_at = SimTime::Zero() + Duration::Seconds(1.0);
  const ServeOut a = RunServe(cfg);
  EXPECT_GT(a.rejected, 0) << "no hedged launch failed admission";
  EXPECT_GT(a.hedge.hedges_launched, 0) << "no failover";
  EXPECT_GT(a.errors + a.shed, 0) << "no attempt exhausted its candidates";
  EXPECT_EQ(a.digest, kHedgedFailoverDigest) << "0x" << std::hex << a.digest;
  EXPECT_EQ(a.outcome_digest, kHedgedFailoverOutcomeDigest)
      << "0x" << std::hex << a.outcome_digest;
  EXPECT_EQ(a.hedge.operations, 1833);
  EXPECT_EQ(a.hedge.hedges_launched, 909);
  EXPECT_EQ(a.hedge.hedge_wins, 381);
  // Failovers start only after their predecessor answered, so nothing
  // is left running when an op succeeds.
  EXPECT_EQ(a.hedge.wasted_completions, 0);
}

TEST(ClusterDeterminismTest, SweepThreadCountInvariance) {
  SweepSpec spec;
  spec.name = "cluster_mini";
  spec.axes = {{"policy", {0, 2}, {"ignore-stutter", "proportional-share"}}};
  spec.seeds = {1, 2};
  const auto cell = [](const CellPoint& point) {
    ServeConfig cfg;
    cfg.policy = static_cast<int>(point.Value("policy"));
    cfg.seed = point.seed;
    cfg.slow_factor = 2.0;
    cfg.lambda = 150.0;
    cfg.seconds = 5.0;
    const ServeOut out = RunServe(cfg);
    CellResult r;
    r.point = point;
    r.value = static_cast<double>(out.goodput);
    r.fire_digest = out.digest;
    r.metrics.emplace_back("shed", static_cast<double>(out.shed));
    return r;
  };
  const auto one = SweepRunner(1).Run(spec, cell);
  const auto four = SweepRunner(4).Run(spec, cell);
  EXPECT_EQ(SweepReportJson(spec, one), SweepReportJson(spec, four));
}

// ---------------------------------------------------------------------------
// DDS cross-check: the 2-node degenerate case
// ---------------------------------------------------------------------------

// A 2-node, R=2, quorum=2 cluster is the ReplicatedStore (kSyncBoth) of
// src/workload/dds.h with a network in front. Both draw their arrival
// process from the first RNG fork of a fresh seeded Simulator with one
// Exponential per arrival, so the same seed must produce the identical
// arrival count — and with ample admission both must ack every put.
struct ParityOut {
  int64_t issued = 0;
  int64_t acked = 0;
};

ParityOut RunClusterParity(uint64_t seed, double rate, double secs,
                           bool gc_on_mirror) {
  Simulator sim(seed);
  FleetParams fp;
  fp.arrivals_per_sec = rate;
  fp.run_for = Duration::Seconds(secs);
  fp.read_fraction = 0.0;  // puts only, like the DDS workload
  fp.zipf_s = 0.0;
  ColumnarFleet fleet(sim, fp);

  ClusterParams cp;
  cp.nodes = 2;
  cp.shard.replication = 2;
  cp.write_quorum = 2;  // kSyncBoth semantics
  cp.write_work = 1000.0;
  cp.node.cpu_rate = 1e6;
  cp.admission.max_outstanding_per_node = 1 << 20;  // never shed
  cp.slo_deadline = Duration::Seconds(60.0);
  KvService svc(sim, cp, MakePolicy(0));
  if (gc_on_mirror) {
    svc.node(1)->AttachModulator(MakeGarbageCollector(
        sim.rng().Fork(), Duration::Seconds(1.0), Duration::Millis(100)));
  }
  bool finished = false;
  FleetResult fleet_result;
  fleet.Run(svc, [&](const FleetResult& r) {
    finished = true;
    fleet_result = r;
  });
  RunAndExpect(sim, finished);
  return {fleet_result.ops_issued, svc.slo().acks()};
}

ParityOut RunDdsParity(uint64_t seed, double rate, double secs,
                       bool gc_on_mirror) {
  Simulator sim(seed);
  Node primary(sim, "primary", {});
  Node mirror(sim, "mirror", {});
  DdsParams dp;
  dp.arrivals_per_sec = rate;
  dp.run_for = Duration::Seconds(secs);
  dp.mode = ReplicationMode::kSyncBoth;
  // Construct the store before forking the fault RNG: the arrival stream
  // must be the simulator's first fork on both sides of the parity check.
  ReplicatedStore store(sim, dp, &primary, &mirror);
  if (gc_on_mirror) {
    mirror.AttachModulator(MakeGarbageCollector(
        sim.rng().Fork(), Duration::Seconds(1.0), Duration::Millis(100)));
  }
  bool finished = false;
  DdsResult result;
  store.Run([&](const DdsResult& r) {
    finished = true;
    result = r;
  });
  RunAndExpect(sim, finished);
  return {result.ops_issued, result.ops_acked};
}

TEST(ClusterDdsParityTest, TwoNodeDegenerateCaseMatchesReplicatedStore) {
  for (const uint64_t seed : {5ull, 6ull}) {
    const ParityOut cluster = RunClusterParity(seed, 400.0, 10.0, false);
    const ParityOut dds = RunDdsParity(seed, 400.0, 10.0, false);
    EXPECT_EQ(cluster.issued, dds.issued) << "seed " << seed;
    EXPECT_GT(cluster.issued, 0) << "seed " << seed;
    EXPECT_EQ(cluster.acked, cluster.issued) << "seed " << seed;
    EXPECT_EQ(dds.acked, dds.issued) << "seed " << seed;
  }
}

TEST(ClusterDdsParityTest, ParityHoldsUnderTheGcFault) {
  const uint64_t seed = 8;
  const ParityOut cluster = RunClusterParity(seed, 400.0, 10.0, true);
  const ParityOut dds = RunDdsParity(seed, 400.0, 10.0, true);
  EXPECT_EQ(cluster.issued, dds.issued);
  EXPECT_GT(cluster.issued, 0);
  EXPECT_EQ(cluster.acked, cluster.issued);
  EXPECT_EQ(dds.acked, dds.issued);
}

// Regression for the ranking-scratch retention bug: a single rank over a
// huge replica set (full-fleet probe) used to pin the scratch vector's
// high-water capacity forever. The shrink policy must release it and keep
// steady replication-factor-sized ranks bounded.
TEST(ReplicaSelectorTest, ScratchCapacityReleasedAfterHugeRank) {
  constexpr int kNodes = 512;
  ReplicaSelector sel(RouteMode::kQueueWeighted, kNodes, Rng(11));
  const ReplicaSelector::DepthFn depth = [](int node) { return node % 5; };

  std::vector<int> out;
  std::vector<int> small{1, 2, 3};
  for (int i = 0; i < 100; ++i) {
    sel.RankInto(small, depth, out);
  }
  EXPECT_LE(sel.scratch_capacity(), ReplicaSelector::kScratchRetainCap);

  std::vector<int> huge(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    huge[i] = i;
  }
  sel.RankInto(huge, depth, out);
  EXPECT_EQ(out.size(), huge.size());
  // The one-off probe must not pin ~kNodes capacity for the campaign.
  EXPECT_LE(sel.scratch_capacity(), ReplicaSelector::kScratchRetainCap);

  for (int i = 0; i < 100; ++i) {
    sel.RankInto(small, depth, out);
    ASSERT_LE(sel.scratch_capacity(), ReplicaSelector::kScratchRetainCap);
  }
}

// ---------------------------------------------------------------------------
// ClusterParams validation: bad configs throw at construction
// ---------------------------------------------------------------------------

void BuildService(const ClusterParams& params) {
  Simulator sim(1);
  KvService svc(sim, params, std::make_unique<ProportionalSharePolicy>());
}

ClusterParams WithRecovery() {
  ClusterParams p;
  p.recovery.enabled = true;
  return p;
}

TEST(ClusterParamsTest, RejectsNodesBelowOne) {
  ClusterParams p;
  p.shard.replication = 1;
  p.write_quorum = 1;
  for (const int nodes : {0, -3}) {
    p.nodes = nodes;
    EXPECT_THROW(BuildService(p), std::invalid_argument) << nodes;
  }
  p.nodes = 1;
  EXPECT_NO_THROW(BuildService(p));
}

TEST(ClusterParamsTest, RejectsReplicationOutsideOneToNodes) {
  ClusterParams p;  // 4 nodes, write_quorum 1
  for (const int replication : {0, -1, 5}) {
    p.shard.replication = replication;
    EXPECT_THROW(BuildService(p), std::invalid_argument) << replication;
  }
  for (const int replication : {1, 4}) {
    p.shard.replication = replication;
    EXPECT_NO_THROW(BuildService(p)) << replication;
  }
}

TEST(ClusterParamsTest, RejectsWriteQuorumOutsideOneToReplication) {
  ClusterParams p;  // replication 2
  for (const int quorum : {0, -2, 3}) {
    p.write_quorum = quorum;
    EXPECT_THROW(BuildService(p), std::invalid_argument) << quorum;
  }
  p.write_quorum = 2;
  EXPECT_NO_THROW(BuildService(p));
}

TEST(ClusterParamsTest, RejectsNmrQuorumOutsideOneToIssue) {
  ClusterParams p;
  p.nmr.issue = 2;
  p.nmr.quorum = 3;
  EXPECT_NO_THROW(BuildService(p));  // NMR off: its knobs are unused
  p.nmr.enabled = true;
  for (const int quorum : {0, 3}) {
    p.nmr.quorum = quorum;
    EXPECT_THROW(BuildService(p), std::invalid_argument) << quorum;
  }
  p.nmr.quorum = 2;
  EXPECT_NO_THROW(BuildService(p));
}

TEST(ClusterParamsTest, RejectsNegativeMaxHedges) {
  ClusterParams p;
  p.hedge.max_hedges = -1;
  EXPECT_NO_THROW(BuildService(p));  // hedging off: its knobs are unused
  p.hedge_reads = true;
  for (const int hedges : {-1, -7}) {
    p.hedge.max_hedges = hedges;
    EXPECT_THROW(BuildService(p), std::invalid_argument) << hedges;
  }
  p.hedge.max_hedges = 0;  // hedged reads that never launch a duplicate
  EXPECT_NO_THROW(BuildService(p));
}

TEST(ClusterParamsTest, RejectsNegativeHedgeDelay) {
  ClusterParams p;
  p.hedge.hedge_delay = Duration::Millis(-1);
  EXPECT_NO_THROW(BuildService(p));  // hedging off: its knobs are unused
  p.hedge_reads = true;
  for (const Duration delay : {Duration::Nanos(-1), Duration::Millis(-50)}) {
    p.hedge.hedge_delay = delay;
    EXPECT_THROW(BuildService(p), std::invalid_argument) << delay.nanos();
  }
  p.hedge.hedge_delay = Duration::Zero();  // hedge at once
  EXPECT_NO_THROW(BuildService(p));
}

TEST(ClusterParamsTest, RejectsZeroNmrKeyStride) {
  ClusterParams p;
  p.nmr.key_stride = 0;
  EXPECT_NO_THROW(BuildService(p));  // NMR off: its knobs are unused
  p.nmr.enabled = true;
  EXPECT_THROW(BuildService(p), std::invalid_argument);
  p.nmr.key_stride = 1;
  EXPECT_NO_THROW(BuildService(p));
}

TEST(ClusterParamsTest, RejectsNonPositiveHeartbeatWithRecovery) {
  ClusterParams p = WithRecovery();
  for (const Duration every : {Duration::Zero(), Duration::Millis(-250)}) {
    p.recovery.heartbeat_every = every;
    EXPECT_THROW(BuildService(p), std::invalid_argument) << every.nanos();
  }
  p.recovery.enabled = false;  // no heartbeats are scheduled
  EXPECT_NO_THROW(BuildService(p));
}

TEST(ClusterParamsTest, RejectsNonPositiveLivenessTimeoutWithRecovery) {
  ClusterParams p = WithRecovery();
  for (const Duration timeout : {Duration::Zero(), Duration::Seconds(-1.0)}) {
    p.recovery.liveness_timeout = timeout;
    EXPECT_THROW(BuildService(p), std::invalid_argument) << timeout.nanos();
  }
  p.recovery.liveness_timeout = Duration::Nanos(1);
  EXPECT_NO_THROW(BuildService(p));
}

TEST(ClusterParamsTest, RejectsUnrepresentableRepairRate) {
  ClusterParams p = WithRecovery();
  // Negative, NaN, infinite, an interval past Duration::Max() (1e11 s),
  // and an interval that truncates to 0 ns.
  for (const double rate : {-1.0, std::nan(""), HUGE_VAL, 1e-11, 2e9}) {
    p.recovery.repair_keys_per_sec = rate;
    EXPECT_THROW(BuildService(p), std::invalid_argument) << rate;
  }
  // 0 turns repair off; 1e-9 is a 1e9 s interval, still representable.
  for (const double rate : {0.0, 1e-9, 400.0, 1e9}) {
    p.recovery.repair_keys_per_sec = rate;
    EXPECT_NO_THROW(BuildService(p)) << rate;
  }
}

TEST(ClusterParamsTest, RejectsAdmissionCapBelowOne) {
  ClusterParams p;
  for (const int cap : {0, -1}) {
    p.admission.max_outstanding_per_node = cap;
    EXPECT_THROW(BuildService(p), std::invalid_argument) << cap;
  }
  p.admission.max_outstanding_per_node = 1;
  EXPECT_NO_THROW(BuildService(p));
}

TEST(ClusterParamsTest, RejectsNonPositiveLiveWindow) {
  ClusterParams p;
  p.live.window = Duration::Zero();
  EXPECT_NO_THROW(BuildService(p));  // plane off: the window is unused
  p.live.enabled = true;
  for (const Duration window : {Duration::Zero(), Duration::Millis(-250)}) {
    p.live.window = window;
    EXPECT_THROW(BuildService(p), std::invalid_argument) << window.nanos();
  }
  p.live.window = Duration::Nanos(1);
  EXPECT_NO_THROW(BuildService(p));
}

TEST(ClusterParamsTest, RejectsNonPositiveOrNonFiniteWork) {
  for (const bool reads : {true, false}) {
    ClusterParams p;
    double& work = reads ? p.read_work : p.write_work;
    for (const double w : {0.0, -1e30, std::nan(""), HUGE_VAL}) {
      work = w;
      EXPECT_THROW(BuildService(p), std::invalid_argument)
          << (reads ? "read_work " : "write_work ") << w;
    }
    work = 1e-3;
    EXPECT_NO_THROW(BuildService(p));
  }
}

TEST(ClusterParamsTest, RejectsNegativeMessageBytes) {
  for (const bool request : {true, false}) {
    ClusterParams p;
    int64_t& bytes = request ? p.request_bytes : p.response_bytes;
    bytes = -1;
    EXPECT_THROW(BuildService(p), std::invalid_argument)
        << (request ? "request_bytes" : "response_bytes");
    bytes = 0;
    EXPECT_NO_THROW(BuildService(p));
  }
}

// The service builds its Switch and Nodes from params.net and params.node,
// so their constructors' checks reach every cluster.
TEST(ClusterParamsTest, RejectsDeviceKnobsItsDevicesReject) {
  ClusterParams p;
  p.net.link_mbps = 0.0;
  EXPECT_THROW(BuildService(p), std::invalid_argument);
  p = ClusterParams{};
  p.node.cpu_rate = 0.0;
  EXPECT_THROW(BuildService(p), std::invalid_argument);
}

}  // namespace
}  // namespace fst

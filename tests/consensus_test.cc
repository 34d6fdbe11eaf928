// Tests for the consensus-backed control plane: the replicated ControlState
// replays deterministically (same committed log -> same ownership digest and
// score epoch, including across a snapshot restore + idempotent suffix
// re-apply), the quorum elects exactly one leader per term and survives
// leader crashes, a gc-paused-but-alive leader produces a *false* failover
// (the stutter-vs-crash confusion the paper predicts), compaction snapshots
// the log and lagging followers catch up by snapshot installation, the
// registry's per-component liveness deadline override judges control-plane
// replicas on their own clock, and a full control-mode chaos seed holds
// every invariant with a byte-identical campaign report at any thread count.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/campaign.h"
#include "src/consensus/log.h"
#include "src/consensus/raft.h"
#include "src/core/perf_spec.h"
#include "src/core/registry.h"
#include "src/faults/injector.h"
#include "src/simcore/rng.h"
#include "src/simcore/simulator.h"
#include "src/simcore/time.h"

namespace fst {
namespace {

SimTime At(double seconds) {
  return SimTime::Zero() + Duration::Seconds(seconds);
}

// A plausible control stream: ejects, unejects, and weight writes drawn
// from a seeded Rng, with occasional adjacent duplicates (the shape a
// retried proposal produces — the window-of-one client never reorders, so
// duplicates are always back-to-back).
std::vector<ConfigChange> RandomChanges(uint64_t seed, int data_nodes,
                                        int count) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<ConfigChange> out;
  while (static_cast<int>(out.size()) < count) {
    ConfigChange c;
    c.node = static_cast<int32_t>(rng.UniformInt(0, data_nodes - 1));
    const double draw = rng.UniformDouble(0.0, 1.0);
    if (draw < 0.3) {
      c.kind = ConfigChangeKind::kEject;
    } else if (draw < 0.6) {
      c.kind = ConfigChangeKind::kUneject;
    } else {
      c.kind = ConfigChangeKind::kSetWeight;
      c.weight = rng.UniformDouble(0.0, 1.0);
    }
    out.push_back(c);
    if (rng.Bernoulli(0.2)) {
      out.push_back(c);  // adjacent duplicate, as a retry would submit
    }
  }
  out.resize(static_cast<size_t>(count));
  return out;
}

// ---------------------------------------------------------------------------
// ControlState replay determinism (satellite: config-change replay)

TEST(ControlLogTest, EffectiveChangesBumpEpochDuplicatesDoNot) {
  ControlState st(4, ShardMapParams{});
  const uint64_t epoch0 = st.score_epoch();

  ConfigChange eject;
  eject.kind = ConfigChangeKind::kEject;
  eject.node = 2;
  st.Apply(1, eject);
  EXPECT_TRUE(st.map().IsEjected(2));
  EXPECT_EQ(st.score_epoch(), epoch0 + 1);

  // Identical duplicate: applied index advances, ownership and epoch don't.
  const uint64_t own = st.map().OwnershipDigest();
  st.Apply(2, eject);
  EXPECT_EQ(st.map().OwnershipDigest(), own);
  EXPECT_EQ(st.score_epoch(), epoch0 + 1);
  EXPECT_EQ(st.applied_index(), 2u);

  ConfigChange weight;
  weight.kind = ConfigChangeKind::kSetWeight;
  weight.node = 1;
  weight.weight = 0.25;
  st.Apply(3, weight);
  EXPECT_EQ(st.score_epoch(), epoch0 + 2);
  st.Apply(4, weight);  // same value again: no epoch bump
  EXPECT_EQ(st.score_epoch(), epoch0 + 2);
  EXPECT_DOUBLE_EQ(st.weight(1), 0.25);

  ConfigChange noop;
  noop.kind = ConfigChangeKind::kNoop;
  st.Apply(5, noop);
  EXPECT_EQ(st.score_epoch(), epoch0 + 2);
}

TEST(ControlLogTest, SameCommittedLogYieldsIdenticalDigestAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<ConfigChange> log = RandomChanges(seed, 5, 200);

    ControlState a(5, ShardMapParams{});
    ControlState b(5, ShardMapParams{});
    uint64_t index = 0;
    for (const ConfigChange& c : log) {
      ++index;
      a.Apply(index, c);
      b.Apply(index, c);
    }
    EXPECT_EQ(a.Digest(), b.Digest()) << "seed " << seed;
    EXPECT_EQ(a.map().OwnershipDigest(), b.map().OwnershipDigest())
        << "seed " << seed;
    EXPECT_EQ(a.score_epoch(), b.score_epoch()) << "seed " << seed;
  }
}

TEST(ControlLogTest, SnapshotRestorePlusSuffixReplayConverges) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<ConfigChange> log = RandomChanges(seed, 4, 160);

    // Reference replica applies the whole log.
    ControlState full(4, ShardMapParams{});
    for (size_t i = 0; i < log.size(); ++i) {
      full.Apply(i + 1, log[i]);
    }

    // Restored replica: snapshot mid-log, restore into a fresh state (the
    // crash-restart path), then apply the remaining suffix.
    ControlState half(4, ShardMapParams{});
    const size_t cut = 70;
    for (size_t i = 0; i < cut; ++i) {
      half.Apply(i + 1, log[i]);
    }
    const ControlSnapshot snap = half.TakeSnapshot();
    EXPECT_EQ(snap.applied_index, cut);

    ControlState restored(4, ShardMapParams{});
    restored.Restore(snap);
    EXPECT_EQ(restored.Digest(), half.Digest()) << "seed " << seed;
    for (size_t i = cut; i < log.size(); ++i) {
      restored.Apply(i + 1, log[i]);
    }
    EXPECT_EQ(restored.Digest(), full.Digest()) << "seed " << seed;
    EXPECT_EQ(restored.score_epoch(), full.score_epoch()) << "seed " << seed;
    EXPECT_EQ(restored.map().OwnershipDigest(),
              full.map().OwnershipDigest())
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Registry: per-component liveness deadline override (satellite)

TEST(RegistryDeadlineTest, PerComponentOverrideJudgesOwnClock) {
  PerformanceStateRegistry reg;
  reg.Register("meta0", PerformanceSpec::RateBand(1000.0, 0.25));
  reg.Register("node0", PerformanceSpec::RateBand(1000.0, 0.25));
  reg.RecordLiveness("meta0", At(0.0));
  reg.RecordLiveness("node0", At(0.0));

  reg.SetLivenessDeadline("meta0", Duration::Millis(500));
  EXPECT_EQ(reg.LivenessDeadlineFor("meta0", Duration::Seconds(1.0)).nanos(),
            Duration::Millis(500).nanos());
  EXPECT_EQ(reg.LivenessDeadlineFor("node0", Duration::Seconds(1.0)).nanos(),
            Duration::Seconds(1.0).nanos());

  // At 0.8s the control replica has breached its tight deadline while the
  // data node is still inside the fallback.
  const std::vector<std::string> failed =
      reg.CheckLiveness(At(0.8), Duration::Seconds(1.0));
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], "meta0");
  EXPECT_EQ(reg.StateOf("node0"), PerfState::kHealthy);

  // Clearing the override (zero duration) restores the fallback: at 1.9s
  // meta0 is 0.9s silent, which its old 500ms deadline would fail but the
  // 1.5s fallback tolerates.
  reg.MarkRecovered("meta0", At(1.0));
  reg.RecordLiveness("node0", At(1.0));
  reg.SetLivenessDeadline("meta0", Duration::Zero());
  EXPECT_TRUE(reg.CheckLiveness(At(1.9), Duration::Seconds(1.5)).empty());
}

// ---------------------------------------------------------------------------
// Elections, replication, failover

ConsensusParams SmallQuorum(int replicas = 3) {
  ConsensusParams p;
  p.replicas = replicas;
  p.data_nodes = 4;
  return p;
}

void BuildGroup(const ConsensusParams& params) {
  Simulator sim(1);
  ConsensusGroup group(sim, params);
}

TEST(ConsensusParamsTest, RejectsReplicasBelowOne) {
  for (const int replicas : {0, -2}) {
    EXPECT_THROW(BuildGroup(SmallQuorum(replicas)), std::invalid_argument)
        << replicas;
  }
  EXPECT_NO_THROW(BuildGroup(SmallQuorum(1)));
}

TEST(ConsensusParamsTest, RejectsNonPositiveHeartbeat) {
  ConsensusParams p = SmallQuorum();
  for (const Duration every : {Duration::Zero(), Duration::Millis(-60)}) {
    p.heartbeat_every = every;
    EXPECT_THROW(BuildGroup(p), std::invalid_argument) << every.nanos();
  }
  p.heartbeat_every = Duration::Nanos(1);
  EXPECT_NO_THROW(BuildGroup(p));
}

TEST(ConsensusParamsTest, RejectsNonPositiveElectionTimeouts) {
  for (const Duration bad : {Duration::Zero(), Duration::Millis(-1)}) {
    ConsensusParams p = SmallQuorum();
    p.election_timeout_min = bad;
    EXPECT_THROW(BuildGroup(p), std::invalid_argument) << bad.nanos();
    p.election_timeout_max = bad;
    EXPECT_THROW(BuildGroup(p), std::invalid_argument) << bad.nanos();
  }
}

TEST(ConsensusParamsTest, RejectsInvertedElectionWindow) {
  ConsensusParams p = SmallQuorum();
  p.election_timeout_min = Duration::Millis(500);
  p.election_timeout_max = Duration::Millis(250);
  EXPECT_THROW(BuildGroup(p), std::invalid_argument);
  p.election_timeout_max = p.election_timeout_min;  // a fixed timeout
  EXPECT_NO_THROW(BuildGroup(p));
}

TEST(ConsensusTest, ElectsOneLeaderAndKeepsItWithoutFaults) {
  Simulator sim(11);
  ConsensusGroup group(sim, SmallQuorum());
  group.Start(At(8.0));
  sim.Run();

  EXPECT_GE(group.leader(), 0);
  EXPECT_GE(group.elections_won(), 1);
  EXPECT_EQ(group.false_failovers(), 0);
  // Steady heartbeats after the first win: no further elections.
  EXPECT_EQ(group.elections_won(), 1);
  EXPECT_TRUE(group.CheckInvariants(Duration::Seconds(3.0)).empty());
  // The initial leaderless window is one election timeout, well under a
  // second.
  EXPECT_LT(group.max_leaderless_seconds(), 1.0);
}

TEST(ConsensusTest, ProposalsCommitInOrderAndApplyOnEveryReplica) {
  Simulator sim(12);
  ConsensusGroup group(sim, SmallQuorum());

  std::vector<ConfigChange> applied;
  group.OnApply([&applied](uint64_t, const ConfigChange& c) {
    if (c.kind != ConfigChangeKind::kNoop) {
      applied.push_back(c);
    }
  });

  ConfigChange eject;
  eject.kind = ConfigChangeKind::kEject;
  eject.node = 1;
  ConfigChange weight;
  weight.kind = ConfigChangeKind::kSetWeight;
  weight.node = 2;
  weight.weight = 0.5;
  ConfigChange uneject;
  uneject.kind = ConfigChangeKind::kUneject;
  uneject.node = 1;
  sim.ScheduleAt(At(1.0), [&] {
    group.Propose(eject);
    group.Propose(weight);
    group.Propose(uneject);
  });

  group.Start(At(8.0));
  sim.Run();

  ASSERT_EQ(applied.size(), 3u);
  EXPECT_EQ(applied[0].kind, ConfigChangeKind::kEject);
  EXPECT_EQ(applied[1].kind, ConfigChangeKind::kSetWeight);
  EXPECT_EQ(applied[2].kind, ConfigChangeKind::kUneject);
  EXPECT_EQ(group.reconfigs_applied(), 3);
  EXPECT_EQ(group.pending_proposals(), 0u);
  EXPECT_GT(group.reconfig_mean_ms(), 0.0);

  // Every replica applied the same committed prefix.
  const uint64_t digest = group.replica(0).state().Digest();
  for (int i = 1; i < group.replicas(); ++i) {
    EXPECT_EQ(group.replica(i).state().Digest(), digest) << "replica " << i;
  }
  EXPECT_FALSE(group.replica(0).state().map().IsEjected(1));
  EXPECT_DOUBLE_EQ(group.replica(0).state().weight(2), 0.5);
  EXPECT_TRUE(group.CheckInvariants(Duration::Seconds(3.0)).empty());
}

TEST(ConsensusTest, LeaderCrashFailsOverAndCommitsSurvive) {
  Simulator sim(13);
  ConsensusGroup group(sim, SmallQuorum());
  FaultInjector injector(sim);

  ConfigChange before;
  before.kind = ConfigChangeKind::kSetWeight;
  before.node = 0;
  before.weight = 0.75;
  sim.ScheduleAt(At(1.0), [&] { group.Propose(before); });

  // Crash whoever leads at t=2s; the survivors must elect a successor and
  // keep serving proposals submitted while the old leader is down.
  sim.ScheduleAt(At(2.0), [&] {
    CrashRestartFault f;
    f.at = sim.Now();
    f.down_for = Duration::Seconds(3.0);
    injector.ScheduleCrashRestart(group.LeaderDeviceOrFallback(), f);
  });
  ConfigChange after;
  after.kind = ConfigChangeKind::kSetWeight;
  after.node = 3;
  after.weight = 0.25;
  sim.ScheduleAt(At(3.0), [&] { group.Propose(after); });

  group.Start(At(12.0));
  sim.Run();

  EXPECT_GE(group.elections_won(), 2);  // initial election + failover
  EXPECT_EQ(group.reconfigs_applied(), 2);
  EXPECT_EQ(group.pending_proposals(), 0u);
  // The crash was real: the deposed leader's device was down when the
  // failover election started.
  EXPECT_EQ(group.false_failovers(), 0);
  EXPECT_DOUBLE_EQ(group.replica(0).state().weight(0), 0.75);
  EXPECT_DOUBLE_EQ(group.replica(0).state().weight(3), 0.25);
  EXPECT_TRUE(group.CheckInvariants(Duration::Seconds(3.0)).empty());
}

TEST(ConsensusTest, GcPausedLeaderCausesFalseFailover) {
  Simulator sim(14);
  ConsensusGroup group(sim, SmallQuorum());
  FaultInjector injector(sim);

  // At t=3s, gc-storm whoever leads: 800ms pauses dwarf the 500ms election
  // timeout ceiling, so some follower must call an election while the
  // leader's device is alive the whole time — a false failover by
  // construction, the stutter-vs-crash confusion the paper predicts.
  sim.ScheduleAt(At(3.0), [&] {
    FaultableDevice& leader = group.LeaderDeviceOrFallback();
    injector.InjectOfflineWindows(
        leader,
        {{sim.Now(), Duration::Millis(800)},
         {sim.Now() + Duration::Millis(1200), Duration::Millis(800)}},
        "chaos-gc");
  });

  group.Start(At(12.0));
  sim.Run();

  EXPECT_GE(group.false_failovers(), 1);
  EXPECT_GE(group.elections_won(), 2);
  EXPECT_GE(group.leader(), 0);
  EXPECT_TRUE(group.CheckInvariants(Duration::Seconds(3.0)).empty());
  // No device ever actually failed — the unavailability was pure stutter.
  for (int i = 0; i < group.replicas(); ++i) {
    EXPECT_FALSE(group.replica(i).device().has_failed());
  }
}

TEST(ConsensusTest, CompactionSnapshotsAndLaggingFollowerInstalls) {
  Simulator sim(15);
  ConsensusParams params = SmallQuorum();
  params.snapshot_every = 8;
  ConsensusGroup group(sim, params);
  FaultInjector injector(sim);

  // Crash a non-leader replica, then commit several compaction windows'
  // worth of entries while it is down. Its log suffix is compacted away on
  // the survivors, so catch-up must go through snapshot installation.
  sim.ScheduleAt(At(2.0), [&] {
    const int victim =
        group.leader() >= 0 ? (group.leader() + 1) % group.replicas() : 1;
    CrashRestartFault f;
    f.at = sim.Now();
    f.down_for = Duration::Seconds(4.0);
    injector.ScheduleCrashRestart(group.replica(victim).device(), f);
  });
  for (int k = 0; k < 24; ++k) {
    sim.ScheduleAt(At(2.1 + 0.1 * k), [&group, k] {
      ConfigChange c;
      c.kind = ConfigChangeKind::kSetWeight;
      c.node = k % 4;
      c.weight = (k % 2 == 0) ? 0.5 : 1.0;
      group.Propose(c);
    });
  }

  group.Start(At(15.0));
  sim.Run();

  EXPECT_GE(group.snapshots_taken(), 1);
  EXPECT_GE(group.snapshots_installed(), 1);
  EXPECT_EQ(group.reconfigs_applied(), 24);
  EXPECT_EQ(group.pending_proposals(), 0u);
  EXPECT_TRUE(group.CheckInvariants(Duration::Seconds(3.0)).empty());
  const uint64_t digest = group.replica(0).state().Digest();
  for (int i = 1; i < group.replicas(); ++i) {
    EXPECT_EQ(group.replica(i).state().Digest(), digest) << "replica " << i;
  }
}

// ---------------------------------------------------------------------------
// Control-plane chaos campaign end to end

TEST(ControlPlaneCampaignTest, SeedHoldsInvariantsEndToEnd) {
  CampaignParams p;
  p.control_plane = true;
  p.run_for = Duration::Seconds(12.0);
  p.settle = Duration::Seconds(6.0);

  const SeedOutcome out = RunChaosSeed(p, 7);
  EXPECT_TRUE(out.ok) << (out.violations.empty() ? ""
                                                 : out.violations.front());
  EXPECT_TRUE(out.control_plane);
  EXPECT_GE(out.elections, 1);
  EXPECT_GT(out.entries_committed, 0);
  EXPECT_GT(out.reconfigs, 0);
  EXPECT_GT(out.reconfig_mean_ms, 0.0);
}

TEST(ControlPlaneCampaignTest, ReportIsByteIdenticalAcrossThreadCounts) {
  CampaignParams p;
  p.control_plane = true;
  p.seeds = 4;
  p.run_for = Duration::Seconds(10.0);
  p.settle = Duration::Seconds(6.0);

  p.threads = 1;
  const CampaignResult one = RunCampaign(p);
  p.threads = 4;
  const CampaignResult four = RunCampaign(p);
  EXPECT_EQ(one.ReportJson(), four.ReportJson());
  EXPECT_EQ(one.violations, 0);
}

}  // namespace
}  // namespace fst

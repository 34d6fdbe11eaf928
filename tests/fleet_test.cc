// Tests for the columnar client/op core: batched arrivals, the slab op
// table, coalesced completions, and their bit-parity with a per-event
// reference fleet.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/fleet/arrivals.h"
#include "src/cluster/fleet/fleet.h"
#include "src/cluster/fleet/op_table.h"
#include "src/core/policy.h"
#include "src/devices/modulators.h"
#include "src/harness/sweep.h"
#include "src/simcore/batch_sequencer.h"
#include "src/simcore/rng.h"
#include "src/simcore/stats.h"
#include "tests/test_util.h"

namespace fst {
namespace {

// ---------------------------------------------------------------------------
// Guide-table Zipf: bit-identical to the old full binary search
// ---------------------------------------------------------------------------

// Straight copy of the pre-guide-table sampler: same CDF construction, full
// binary search over the whole array. The guide table must narrow the same
// predicate, never change its answer.
class LegacyZipf {
 public:
  LegacyZipf(int64_t n, double s) {
    double total = 0.0;
    for (int64_t rank = 0; rank < n; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }
  int64_t Sample(Rng& rng) const {
    const double u = rng.UniformDouble();
    size_t lo = 0;
    size_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<int64_t>(lo);
  }

 private:
  std::vector<double> cdf_;
};

TEST(ZipfGuideTest, DrawSequencesMatchLegacyBinarySearchExactly) {
  for (const double s : {0.0, 0.8, 1.1, 1.5}) {
    for (const int64_t n : {int64_t{1}, int64_t{7}, int64_t{10000}}) {
      ZipfGenerator guided(n, s);
      LegacyZipf legacy(n, s);
      Rng a(42), b(42);
      for (int i = 0; i < 20000; ++i) {
        ASSERT_EQ(guided.Sample(a), legacy.Sample(b))
            << "s=" << s << " n=" << n << " draw " << i;
      }
    }
  }
}

TEST(ZipfGuideTest, ProbabilitiesStillSumToOne) {
  ZipfGenerator z(100, 1.1);
  double total = 0.0;
  for (int64_t r = 0; r < 100; ++r) {
    total += z.ProbabilityOf(r);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Histogram::RecordN
// ---------------------------------------------------------------------------

TEST(RecordNTest, MatchesRepeatedAddsOnIntegerValues) {
  Histogram a, b;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double v = static_cast<double>(rng.UniformInt(0, 50'000'000));
    const uint64_t n = static_cast<uint64_t>(rng.UniformInt(1, 17));
    a.RecordN(v, n);
    for (uint64_t k = 0; k < n; ++k) {
      b.Add(v);
    }
  }
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (const double q : {0.5, 0.95, 0.99, 0.999}) {
    EXPECT_EQ(a.ValueAtQuantile(q), b.ValueAtQuantile(q)) << q;
  }
}

TEST(RecordNTest, ZeroCountIsANoOp) {
  Histogram h;
  h.RecordN(123.0, 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
}

// ---------------------------------------------------------------------------
// FleetParams validation + run_for == 0 edges
// ---------------------------------------------------------------------------

TEST(FleetValidationTest, RejectsDegenerateParams) {
  Simulator sim(1);
  FleetParams fp;
  fp.arrivals_per_sec = 0.0;  // the old divide-by-zero feeding Exponential
  EXPECT_THROW(ColumnarFleet(sim, fp), std::invalid_argument);
  fp.arrivals_per_sec = -5.0;
  EXPECT_THROW(ColumnarFleet(sim, fp), std::invalid_argument);
  fp.arrivals_per_sec = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ColumnarFleet(sim, fp), std::invalid_argument);
  fp = FleetParams{};
  fp.read_fraction = 1.5;
  EXPECT_THROW(ColumnarFleet(sim, fp), std::invalid_argument);
  fp = FleetParams{};
  fp.read_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ColumnarFleet(sim, fp), std::invalid_argument);
  fp = FleetParams{};
  fp.key_space = 0;
  EXPECT_THROW(ColumnarFleet(sim, fp), std::invalid_argument);
  fp = FleetParams{};
  fp.run_for = Duration::Seconds(-1.0);
  EXPECT_THROW(ColumnarFleet(sim, fp), std::invalid_argument);
  fp = FleetParams{};
  fp.surges = {{Duration::Seconds(1.0), Duration::Seconds(1.0), 0.0}};
  EXPECT_THROW(ColumnarFleet(sim, fp), std::invalid_argument);
  fp.surges = {{Duration::Seconds(1.0), Duration::Seconds(1.0),
                std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_THROW(ColumnarFleet(sim, fp), std::invalid_argument);
  fp.surges = {{Duration::Seconds(-1.0), Duration::Seconds(1.0), 2.0}};
  EXPECT_THROW(ColumnarFleet(sim, fp), std::invalid_argument);

  ColumnarFleetParams cfp;
  cfp.window = 0;
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);
  cfp = ColumnarFleetParams{};
  cfp.mode = ArrivalMode::kMmpp;  // no phases
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);
  cfp = ColumnarFleetParams{};
  cfp.mode = ArrivalMode::kMmpp;
  cfp.phases = {{-1.0, 1.0}};
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);
  cfp = ColumnarFleetParams{};
  cfp.base.arrivals_per_sec = 0.0;  // base params validated too
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);
  cfp = ColumnarFleetParams{};
  cfp.mode = ArrivalMode::kMmpp;
  // Every gap would be 0 ns: the window never crosses the horizon.
  cfp.phases = {{std::numeric_limits<double>::infinity(), 1.0}};
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);
  cfp = ColumnarFleetParams{};
  // Surges are a kPoisson feature; MMPP phases would silently override them.
  cfp.base.surges = {{Duration::Seconds(1.0), Duration::Seconds(1.0), 2.0}};
  EXPECT_NO_THROW(ColumnarFleet(sim, cfp));
  cfp.mode = ArrivalMode::kMmpp;
  cfp.phases = {{300.0, 1.0}};
  EXPECT_THROW(ColumnarFleet(sim, cfp), std::invalid_argument);

  // The generator validates its own inputs: tests and benches build it
  // without a ColumnarFleet in front.
  const auto gen = [&sim](const FleetParams& base, ArrivalMode mode,
                          std::vector<MmppPhase> phases) {
    ArrivalGenerator g(sim, base, mode, std::move(phases), 0);
  };
  fp = FleetParams{};
  fp.arrivals_per_sec = 0.0;  // Exponential(inf) cast to int64 nanoseconds
  EXPECT_THROW(gen(fp, ArrivalMode::kPoisson, {}), std::invalid_argument);
  fp = FleetParams{};
  EXPECT_THROW(gen(fp, ArrivalMode::kMmpp, {}), std::invalid_argument);
  EXPECT_THROW(gen(fp, ArrivalMode::kMmpp, {{-1.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(gen(fp, ArrivalMode::kMmpp,
                   {{std::numeric_limits<double>::infinity(), 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(gen(fp, ArrivalMode::kMmpp, {{300.0, 0.0}}),
               std::invalid_argument);
  fp.surges = {{Duration::Seconds(1.0), Duration::Seconds(1.0), 2.0}};
  EXPECT_NO_THROW(gen(fp, ArrivalMode::kPoisson, {}));
  EXPECT_THROW(gen(fp, ArrivalMode::kMmpp, {{300.0, 1.0}}),
               std::invalid_argument);
  fp = FleetParams{};
  EXPECT_NO_THROW(gen(fp, ArrivalMode::kPoisson, {}));
  EXPECT_NO_THROW(gen(fp, ArrivalMode::kMmpp, {{300.0, 1.0}}));
}

TEST(FleetValidationTest, ZeroHorizonResolvesDoneWithZeroOps) {
  Simulator sim(5);
  ClusterParams cp;
  KvService svc(sim, cp, std::make_unique<IgnoreStutterPolicy>());
  ColumnarFleetParams cfp;
  cfp.base.run_for = Duration::Zero();
  ColumnarFleet fleet(sim, cfp);
  bool finished = false;
  fleet.Run(svc, [&](const FleetResult& r) {
    finished = true;
    EXPECT_EQ(r.ops_issued, 0);
  });
  RunAndExpect(sim, finished);
}

// A positive rate so small that its first gap does not fit a Duration:
// that gap is the horizon-crossing draw, never an out-of-range double ->
// int64 cast (the UBSan job's float-cast-overflow check catches one).
TEST(FleetValidationTest, TinyRatesYieldNoArrivals) {
  const auto fill = [](const FleetParams& base, ArrivalMode mode,
                       std::vector<MmppPhase> phases) {
    Simulator sim(9);
    ArrivalGenerator gen(sim, base, mode, std::move(phases), 0);
    ArrivalBatch batch;
    EXPECT_FALSE(gen.FillWindow(batch, 64, sim.Now() + base.run_for));
    return batch.size();
  };
  FleetParams fp;
  fp.run_for = Duration::Seconds(10.0);
  fp.arrivals_per_sec = 1e-300;
  EXPECT_EQ(fill(fp, ArrivalMode::kPoisson, {}), 0u);
  fp.arrivals_per_sec = 300.0;
  EXPECT_EQ(fill(fp, ArrivalMode::kMmpp, {{1e-300, 1e300}}), 0u);
  fp.surges = {{Duration::Zero(), Duration::Seconds(10.0), 1e-300}};
  EXPECT_EQ(fill(fp, ArrivalMode::kPoisson, {}), 0u);
}

// ---------------------------------------------------------------------------
// OpTable
// ---------------------------------------------------------------------------

TEST(OpTableTest, SlotReuseAndGenerationInvalidation) {
  OpTable t;
  const OpTable::Id a = t.Allocate();
  EXPECT_NE(a, OpTable::kInvalidId);
  EXPECT_EQ(t.live(), 1u);
  EXPECT_GE(t.SlotOf(a), 0);
  t.key[OpTable::RawSlot(a)] = 99;
  t.Free(a);
  EXPECT_EQ(t.live(), 0u);
  EXPECT_LT(t.SlotOf(a), 0) << "freed id must not resolve";

  const OpTable::Id b = t.Allocate();
  EXPECT_EQ(OpTable::RawSlot(b), OpTable::RawSlot(a)) << "slot reused";
  EXPECT_NE(a, b) << "generation stamp distinguishes incarnations";
  EXPECT_LT(t.SlotOf(a), 0) << "stale id still dead after reuse";
  EXPECT_GE(t.SlotOf(b), 0);
  EXPECT_EQ(t.key[OpTable::RawSlot(b)], 0u) << "reused slot comes back clean";
  EXPECT_EQ(t.capacity(), 1u);
}

TEST(OpTableTest, CapacityPlateausAtPeakInFlight) {
  OpTable t;
  std::vector<OpTable::Id> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(t.Allocate());
  }
  EXPECT_EQ(t.capacity(), 64u);
  for (int round = 0; round < 100; ++round) {
    for (auto& id : ids) {
      t.Free(id);
      id = t.Allocate();
    }
  }
  EXPECT_EQ(t.capacity(), 64u) << "steady-state churn must not grow the slab";
  EXPECT_EQ(t.live(), 64u);
}

// ---------------------------------------------------------------------------
// BatchSequencer
// ---------------------------------------------------------------------------

TEST(BatchSequencerTest, FiresEveryIndexAtItsDueTimeAcrossRefills) {
  Simulator sim(1);
  std::vector<SimTime> times;
  std::vector<std::pair<size_t, SimTime>> fired;
  int windows = 0;
  BatchSequencer seq(sim);
  seq.Start(&times,
            [&](size_t i) { fired.emplace_back(i, sim.Now()); },
            [&]() -> size_t {
              if (windows == 3) {
                return 0;
              }
              times.clear();
              for (int i = 0; i < 4; ++i) {
                times.push_back(SimTime::Zero() +
                                Duration::Millis(100 * windows + 10 * (i + 1)));
              }
              ++windows;
              return times.size();
            });
  sim.Run();
  EXPECT_FALSE(seq.active());
  ASSERT_EQ(fired.size(), 12u);
  for (size_t k = 0; k < fired.size(); ++k) {
    EXPECT_EQ(fired[k].first, k % 4);
    const auto expect_at =
        SimTime::Zero() + Duration::Millis(100 * (k / 4) + 10 * (k % 4 + 1));
    EXPECT_EQ(fired[k].second, expect_at) << "index " << k;
  }
}

// ---------------------------------------------------------------------------
// Columnar vs per-event reference parity
// ---------------------------------------------------------------------------

// The per-event open-loop fleet the columnar front end replaced, kept as
// the reference it is checked against: one simulator event per arrival,
// which draws the next gap (at the rate of the last surge window covering
// that instant), then the op's key and read/write coin, at fire time, off
// two streams forked in the same order as ArrivalGenerator's.
class ReferenceFleet {
 public:
  ReferenceFleet(Simulator& sim, const FleetParams& params)
      : sim_(sim), params_(params), arrival_rng_(sim.rng().Fork()),
        key_rng_(sim.rng().Fork()),
        zipf_(params.key_space, params.zipf_s > 0.0 ? params.zipf_s : 0.0) {}

  // Issues arrivals against `service` from now until run_for elapses.
  void Run(KvService& service) {
    service_ = &service;
    start_ = sim_.Now();
    horizon_ = start_ + params_.run_for;
    ScheduleNext();
  }

  // Tallies every outcome the service has appended since the last call.
  const FleetResult& Drain() {
    for (const CompletionRecord& r : service_->DrainCompletions()) {
      ++(r.outcome == SloOutcome::kAck ? result_.ops_ok : result_.ops_failed);
    }
    return result_;
  }

  // Every issued arrival, in issue order.
  ArrivalBatch issued;

 private:
  void ScheduleNext() {
    double factor = 1.0;
    const Duration since_start = sim_.Now() - start_;
    for (const ArrivalSurge& s : params_.surges) {
      if (since_start >= s.at && since_start < s.at + s.duration) {
        factor = s.factor;
      }
    }
    const SimTime at =
        sim_.Now() + Duration::Seconds(arrival_rng_.Exponential(
                         1.0 / (params_.arrivals_per_sec * factor)));
    if (at > horizon_) {
      return;
    }
    sim_.ScheduleAt(at, [this] {
      Issue();
      ScheduleNext();
    });
  }

  void Issue() {
    const uint64_t key = static_cast<uint64_t>(zipf_.Sample(key_rng_));
    const bool is_read = key_rng_.UniformDouble() < params_.read_fraction;
    issued.at.push_back(sim_.Now());
    issued.key.push_back(key);
    issued.is_read.push_back(is_read ? 1 : 0);
    ++result_.ops_issued;
    if (is_read) {
      ++result_.reads_issued;
      service_->GetTagged(key, 0);
    } else {
      ++result_.writes_issued;
      service_->PutTagged(key, 0);
    }
  }

  Simulator& sim_;
  FleetParams params_;
  Rng arrival_rng_;
  Rng key_rng_;
  ZipfGenerator zipf_;
  KvService* service_ = nullptr;
  SimTime start_;
  SimTime horizon_;
  FleetResult result_;
};

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

struct CellCfg {
  int policy = 2;
  uint64_t seed = 3;
  double slow_factor = 2.0;
  double lambda = 320.0;
  double seconds = 10.0;
  bool hedge = false;
  double read_fraction = 1.0;
  int write_quorum = 1;
  bool retry = false;
  uint32_t num_clients = 0;
  size_t window = 512;
  std::vector<ArrivalSurge> surges;
};

struct CellOut {
  FleetResult fleet;
  std::string slo_json;
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t sheds = 0;
  int ejections = 0;
  int reweights = 0;
  uint64_t digest = 0;
  uint64_t client_digest = 0;
  uint64_t outcome_digest = 0;
};

// One serving cell, driven by the ColumnarFleet or (columnar == false) by
// the per-event ReferenceFleet.
CellOut RunCell(const CellCfg& cfg, bool columnar) {
  Simulator sim(cfg.seed);
  ClusterParams cp;
  cp.nodes = 4;
  cp.shard.replication = 2;
  cp.node.cpu_rate = 1e6;
  cp.read_work = 10000.0;
  cp.write_work = 10000.0;
  cp.admission.max_outstanding_per_node = 24;
  cp.slo_deadline = Duration::Millis(300);
  cp.route = cfg.policy == 2 ? RouteMode::kQueueWeighted : RouteMode::kUniform;
  cp.hedge_reads = cfg.hedge;
  cp.hedge = HedgeParams{Duration::Millis(60), 1};
  cp.write_quorum = cfg.write_quorum;
  cp.retry.enabled = cfg.retry;
  // Service first, fleet last: both fleets then see identical arrival/key
  // forks, and the columnar fleet's extra client-id fork (drawn after) can
  // shift nothing.
  KvService svc(sim, cp, MakePolicy(cfg.policy));
  if (cfg.slow_factor > 1.0) {
    svc.node(0)->AttachModulator(
        std::make_shared<ConstantFactorModulator>(cfg.slow_factor));
  }

  FleetParams fp;
  fp.arrivals_per_sec = cfg.lambda;
  fp.run_for = Duration::Seconds(cfg.seconds);
  fp.read_fraction = cfg.read_fraction;
  fp.zipf_s = 1.1;
  fp.surges = cfg.surges;

  CellOut out;
  bool finished = false;
  if (columnar) {
    ColumnarFleetParams cfp;
    cfp.base = fp;
    cfp.window = cfg.window;
    cfp.num_clients = cfg.num_clients;
    ColumnarFleet fleet(sim, cfp);
    fleet.Run(svc, [&](const FleetResult& r) {
      out.fleet = r;
      finished = true;
    });
    sim.Run();
    out.client_digest = fleet.ClientDigest();
  } else {
    ReferenceFleet fleet(sim, fp);
    fleet.Run(svc);
    sim.Run();
    out.fleet = fleet.Drain();
    finished = true;  // no done callback: sim.Run() returned drained
  }
  EXPECT_TRUE(finished) << "fleet did not drain";
  out.slo_json = svc.slo().ReportJson(fp.run_for);
  out.reads = svc.reads();
  out.writes = svc.writes();
  out.sheds = svc.sheds();
  out.ejections = svc.ejections();
  out.reweights = svc.reweights();
  out.digest = sim.fire_digest();
  out.outcome_digest = svc.outcome_digest();
  return out;
}

void ExpectParity(const CellCfg& cfg) {
  const CellOut ref = RunCell(cfg, /*columnar=*/false);
  const CellOut col = RunCell(cfg, /*columnar=*/true);
  EXPECT_EQ(ref.fleet.ops_issued, col.fleet.ops_issued);
  EXPECT_EQ(ref.fleet.reads_issued, col.fleet.reads_issued);
  EXPECT_EQ(ref.fleet.writes_issued, col.fleet.writes_issued);
  EXPECT_EQ(ref.fleet.ops_ok, col.fleet.ops_ok);
  EXPECT_EQ(ref.fleet.ops_failed, col.fleet.ops_failed);
  EXPECT_EQ(ref.slo_json, col.slo_json)
      << "SLO accounting must be byte-identical across fleets";
  EXPECT_EQ(ref.outcome_digest, col.outcome_digest);
  EXPECT_EQ(ref.reads, col.reads);
  EXPECT_EQ(ref.writes, col.writes);
  EXPECT_EQ(ref.sheds, col.sheds);
  EXPECT_EQ(ref.ejections, col.ejections);
  EXPECT_EQ(ref.reweights, col.reweights);
}

TEST(ColumnarParityTest, ReadOnlyCellsMatchLegacyAcrossPoliciesAndSeeds) {
  for (const int policy : {0, 2}) {
    for (const uint64_t seed : {uint64_t{3}, uint64_t{4}}) {
      CellCfg cfg;
      cfg.policy = policy;
      cfg.seed = seed;
      ExpectParity(cfg);
    }
  }
}

TEST(ColumnarParityTest, HedgedReadsMatchLegacy) {
  CellCfg cfg;
  cfg.hedge = true;
  cfg.slow_factor = 8.0;
  cfg.lambda = 150.0;
  cfg.seed = 13;
  ExpectParity(cfg);
}

TEST(ColumnarParityTest, QuorumWritesWithRetriesMatchLegacy) {
  CellCfg cfg;
  cfg.read_fraction = 0.5;
  cfg.write_quorum = 2;
  cfg.retry = true;
  cfg.seed = 5;
  ExpectParity(cfg);
}

TEST(ColumnarParityTest, ClientAttributionDoesNotPerturbServing) {
  CellCfg cfg;
  cfg.seed = 3;
  cfg.num_clients = 1000;
  ExpectParity(cfg);
}

// Overlapping windows (the later one wins where both cover an instant),
// one of them a slowdown, and one reaching past the horizon.
std::vector<ArrivalSurge> TestSurges() {
  return {{Duration::Seconds(2.0), Duration::Seconds(3.0), 2.5},
          {Duration::Seconds(4.0), Duration::Seconds(1.0), 0.5},
          {Duration::Seconds(8.5), Duration::Seconds(5.0), 1.5}};
}

TEST(ColumnarParityTest, SurgedArrivalsMatchReference) {
  CellCfg cfg;
  cfg.read_fraction = 0.7;
  cfg.retry = true;
  cfg.seed = 6;
  cfg.surges = TestSurges();
  ExpectParity(cfg);
}

// The generator alone, window by window, against the per-event fleet's
// issued arrivals: same times, keys and kinds, in order, at any window
// size, with surges on.
TEST(ColumnarParityTest, GeneratorMatchesReferenceArrivalsAtAnyWindow) {
  FleetParams fp;
  fp.arrivals_per_sec = 250.0;
  fp.run_for = Duration::Seconds(10.0);
  fp.read_fraction = 0.6;
  fp.surges = TestSurges();

  Simulator ref_sim(8);
  ReferenceFleet ref(ref_sim, fp);
  KvService svc(ref_sim, ClusterParams{}, MakePolicy(0));
  ref.Run(svc);
  ref_sim.Run();
  ASSERT_GT(ref.issued.size(), 2500u);

  for (const size_t window : {size_t{1}, size_t{7}, size_t{4096}}) {
    SCOPED_TRACE(window);
    Simulator sim(8);
    ArrivalGenerator gen(sim, fp, ArrivalMode::kPoisson, {}, 0);
    const SimTime horizon = sim.Now() + fp.run_for;
    ArrivalBatch batch;
    std::vector<SimTime> at;
    std::vector<uint64_t> key;
    std::vector<uint8_t> is_read;
    bool more = true;
    while (more) {
      more = gen.FillWindow(batch, window, horizon);
      at.insert(at.end(), batch.at.begin(), batch.at.end());
      key.insert(key.end(), batch.key.begin(), batch.key.end());
      is_read.insert(is_read.end(), batch.is_read.begin(),
                     batch.is_read.end());
    }
    EXPECT_EQ(at, ref.issued.at);
    EXPECT_EQ(key, ref.issued.key);
    EXPECT_EQ(is_read, ref.issued.is_read);
  }
}

TEST(ColumnarParityTest, WindowSizeIsBehaviorInvisible) {
  CellCfg cfg;
  cfg.seed = 4;
  cfg.window = 7;
  const CellOut small = RunCell(cfg, /*columnar=*/true);
  cfg.window = 4096;
  const CellOut big = RunCell(cfg, /*columnar=*/true);
  EXPECT_EQ(small.slo_json, big.slo_json);
  EXPECT_EQ(small.fleet.ops_ok, big.fleet.ops_ok);
  EXPECT_EQ(small.digest, big.digest)
      << "coalescing grain must not change the event schedule";
}

// Golden digest of one columnar serving run. The batched path schedules a
// different event *structure* than the per-event reference (sequencer pump
// + drain ticks), so it carries its own pin; outcome parity with the
// reference is asserted separately above.
constexpr uint64_t kColumnarRunDigest = 0x2ce14a73738cb30eULL;

TEST(ColumnarParityTest, ColumnarRunIsBitIdenticalAndPinned) {
  CellCfg cfg;
  cfg.seed = 3;
  cfg.num_clients = 100;
  const CellOut a = RunCell(cfg, /*columnar=*/true);
  const CellOut b = RunCell(cfg, /*columnar=*/true);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.slo_json, b.slo_json);
  EXPECT_EQ(a.client_digest, b.client_digest);
  EXPECT_EQ(a.digest, kColumnarRunDigest)
      << "columnar event order changed; if intentional, re-pin with the new "
         "digest: 0x"
      << std::hex << a.digest;
}

// ---------------------------------------------------------------------------
// Tagged-op trace staging: recorder-on fleet runs flush per drain
// ---------------------------------------------------------------------------

// With a recorder attached, every tagged op's completion trace is staged
// in scratch and bulk-appended at the next drain. The ring must end up
// with exactly one kRequestComplete per issued op, each joinable to its
// kRequestEnqueue by request_id — same pairing the unstaged path gave.
TEST(TraceStagingTest, TaggedCompletionsLandOncePerOpViaBulkAppend) {
  Simulator sim(23);
  EventRecorder recorder(1 << 16);
  ClusterParams cp;
  cp.nodes = 4;
  KvService svc(sim, cp, MakePolicy(2), &recorder);
  ColumnarFleetParams cfp;
  cfp.base.run_for = Duration::Seconds(5.0);
  cfp.base.arrivals_per_sec = 400.0;
  ColumnarFleet fleet(sim, cfp);
  bool finished = false;
  FleetResult result;
  fleet.Run(svc, [&](const FleetResult& r) {
    result = r;
    finished = true;
  });
  sim.Run();
  ASSERT_TRUE(finished);
  ASSERT_GT(result.ops_issued, 1000);

  // The switch and nodes trace into the same ring under their own
  // components; only the service-level "cluster" stream is per-op.
  const uint16_t cluster_comp = recorder.Intern("cluster");
  std::map<uint64_t, int> enqueues;
  std::map<uint64_t, int> completes;
  for (const TraceEvent& e : recorder.Events()) {
    if (e.component != cluster_comp) {
      continue;
    }
    if (e.kind == EventKind::kRequestEnqueue) {
      ++enqueues[e.request_id];
    } else if (e.kind == EventKind::kRequestComplete) {
      ++completes[e.request_id];
    }
  }
  EXPECT_EQ(completes.size(), static_cast<size_t>(result.ops_issued));
  EXPECT_EQ(recorder.dropped(), 0u);
  for (const auto& [id, n] : completes) {
    ASSERT_EQ(n, 1) << "request " << id << " completed more than once";
    ASSERT_EQ(enqueues.count(id), 1u)
        << "completion without matching enqueue: " << id;
  }
}

// ---------------------------------------------------------------------------
// MMPP arrivals
// ---------------------------------------------------------------------------

TEST(MmppTest, ModulatedArrivalsAreDeterministicAndRateResponsive) {
  const auto run = [](double hi_rate) {
    Simulator sim(17);
    ClusterParams cp;
    cp.nodes = 4;
    KvService svc(sim, cp, MakePolicy(2));
    ColumnarFleetParams cfp;
    cfp.base.run_for = Duration::Seconds(10.0);
    cfp.mode = ArrivalMode::kMmpp;
    cfp.phases = {{100.0, 0.5}, {hi_rate, 0.5}};
    ColumnarFleet fleet(sim, cfp);
    bool finished = false;
    FleetResult result;
    fleet.Run(svc, [&](const FleetResult& r) {
      result = r;
      finished = true;
    });
    sim.Run();
    EXPECT_TRUE(finished);
    return std::make_pair(result.ops_issued, sim.fire_digest());
  };
  const auto a = run(800.0);
  const auto b = run(800.0);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second) << "MMPP runs must be bit-reproducible";
  const auto calm = run(100.0);  // both phases at 100/s: plain Poisson rate
  EXPECT_GT(a.first, calm.first)
      << "bursty phase must raise the issued-op count";
  // Two equal-sojourn phases at 100 and 800/s offer ~450/s on average.
  EXPECT_GT(a.first, 3000);
  EXPECT_LT(a.first, 6500);
}

// A phase end past the horizon ends the process like a crossing arrival
// does: the window's arrivals before it still get their keys, kinds and
// clients. Phases here end ~1000x more often than an arrival comes, so the
// crossing draw is a phase end.
TEST(MmppTest, PhaseEndPastHorizonKeepsWindowColumnsAligned) {
  Simulator sim(3);
  FleetParams fp;
  fp.run_for = Duration::Seconds(100.0);
  ArrivalGenerator gen(sim, fp, ArrivalMode::kMmpp, {{0.5, 0.001}}, 10);
  ArrivalBatch batch;
  EXPECT_FALSE(gen.FillWindow(batch, 4096, sim.Now() + fp.run_for));
  EXPECT_GT(batch.size(), 10u);
  EXPECT_EQ(batch.key.size(), batch.size());
  EXPECT_EQ(batch.is_read.size(), batch.size());
  EXPECT_EQ(batch.client.size(), batch.size());
  EXPECT_FALSE(gen.FillWindow(batch, 4096, sim.Now() + fp.run_for));
  EXPECT_EQ(batch.size(), 0u);
}

// ---------------------------------------------------------------------------
// Thread-count invariance of columnar sweeps
// ---------------------------------------------------------------------------

TEST(ColumnarSweepTest, ThreadCountInvariance) {
  SweepSpec spec;
  spec.name = "fleet_mini";
  spec.axes = {{"policy", {0, 2}, {"ignore-stutter", "proportional-share"}}};
  spec.seeds = {1, 2};
  const auto cell = [](const CellPoint& point) {
    CellCfg cfg;
    cfg.policy = static_cast<int>(point.Value("policy"));
    cfg.seed = point.seed;
    cfg.lambda = 150.0;
    cfg.seconds = 5.0;
    const CellOut out = RunCell(cfg, /*columnar=*/true);
    CellResult r;
    r.point = point;
    r.value = static_cast<double>(out.fleet.ops_ok);
    r.fire_digest = out.digest;
    r.metrics.emplace_back("sheds", static_cast<double>(out.sheds));
    return r;
  };
  const auto one = SweepRunner(1).Run(spec, cell);
  const auto four = SweepRunner(4).Run(spec, cell);
  EXPECT_EQ(SweepReportJson(spec, one), SweepReportJson(spec, four));
}

}  // namespace
}  // namespace fst

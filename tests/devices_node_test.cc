#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "src/devices/modulators.h"
#include "src/devices/node.h"
#include "src/simcore/simulator.h"
#include "tests/test_util.h"

namespace fst {
namespace {

NodeParams FastNode() {
  NodeParams p;
  p.cpu_rate = 1e6;
  p.memory_mb = 100.0;
  p.swap_penalty = 40.0;
  return p;
}

TEST(NodeTest, ComputeTimeMatchesRate) {
  Simulator sim;
  Node node(sim, "n0", FastNode());
  bool done = false;
  Duration latency;
  node.Compute(5e5, [&](const IoResult& r) {
    done = true;
    latency = r.Latency();
  });
  RunAndExpect(sim, done);
  EXPECT_NEAR(latency.ToSeconds(), 0.5, 1e-9);
}

TEST(NodeTest, RejectsNonPositiveOrNonFiniteCpuRate) {
  Simulator sim;
  NodeParams p = FastNode();
  for (const double rate : {0.0, -1e6, std::nan(""), HUGE_VAL}) {
    p.cpu_rate = rate;
    EXPECT_THROW(Node(sim, "n0", p), std::invalid_argument) << rate;
  }
  p.cpu_rate = 1e-3;
  EXPECT_NO_THROW(Node(sim, "n0", p));
}

TEST(NodeTest, FifoQueueing) {
  Simulator sim;
  Node node(sim, "n0", FastNode());
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    node.Compute(1e5, [&order, i](const IoResult&) { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(node.tasks_completed(), 3.0);
}

TEST(NodeTest, CpuHogDoublesComputeTime) {
  // NOW-Sort anecdote: competing load halves effective CPU rate.
  Simulator sim;
  Node node(sim, "n0", FastNode());
  node.AttachModulator(std::make_shared<ConstantFactorModulator>(2.0));
  bool done = false;
  Duration latency;
  node.Compute(1e6, [&](const IoResult& r) {
    done = true;
    latency = r.Latency();
  });
  RunAndExpect(sim, done);
  EXPECT_NEAR(latency.ToSeconds(), 2.0, 1e-9);
}

TEST(NodeTest, MemoryOvercommitTriggersSwapPenalty) {
  // Brown & Mowry: up to 40x worse under memory pressure.
  Simulator sim;
  Node node(sim, "n0", FastNode());
  node.ReserveMemory(60.0);
  EXPECT_FALSE(node.MemoryOvercommitted());
  node.ReserveMemory(60.0);  // 120 MB > 100 MB
  EXPECT_TRUE(node.MemoryOvercommitted());

  bool done = false;
  Duration latency;
  node.Compute(1e5, [&](const IoResult& r) {
    done = true;
    latency = r.Latency();
  });
  RunAndExpect(sim, done);
  EXPECT_NEAR(latency.ToSeconds(), 0.1 * 40.0, 1e-9);

  node.ReleaseMemory(60.0);
  EXPECT_FALSE(node.MemoryOvercommitted());
}

TEST(NodeTest, OfflineWindowDefersCompute) {
  // GC-pause shape: the node disappears, work resumes afterwards.
  Simulator sim;
  Node node(sim, "n0", FastNode());
  auto offline = std::make_shared<OfflineWindowModulator>();
  offline->AddWindow(SimTime::Zero(), Duration::Millis(200));
  node.AttachModulator(offline);
  bool done = false;
  SimTime completed;
  node.Compute(1e5, [&](const IoResult& r) {
    done = true;
    completed = r.completed;
  });
  RunAndExpect(sim, done);
  EXPECT_NEAR(completed.ToSeconds(), 0.2 + 0.1, 1e-9);
}

TEST(NodeTest, FailStopDrainsQueueWithErrors) {
  Simulator sim;
  Node node(sim, "n0", FastNode());
  int ok = 0;
  int failed = 0;
  for (int i = 0; i < 3; ++i) {
    node.Compute(1e6, [&](const IoResult& r) { r.ok ? ++ok : ++failed; });
  }
  sim.Schedule(Duration::Millis(1), [&]() { node.FailStop(); });
  sim.Run();
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(ok, 1);  // in-service task completes
  bool sync_fail = false;
  node.Compute(1.0, [&](const IoResult& r) { sync_fail = !r.ok; });
  EXPECT_TRUE(sync_fail);
}

TEST(NodeTest, ReleaseMemoryClampsAtZero) {
  // Regression: an unbalanced release used to drive reserved_mb_ negative,
  // granting the node phantom headroom that masked later overcommit.
  Simulator sim;
  Node node(sim, "n0", FastNode());
  node.ReserveMemory(60.0);
  node.ReleaseMemory(100.0);  // over-release
  EXPECT_DOUBLE_EQ(node.reserved_mb(), 0.0);
  EXPECT_FALSE(node.MemoryOvercommitted());

  // With the clamp, a subsequent overcommit is detected immediately instead
  // of being absorbed by the phantom negative balance.
  node.ReserveMemory(120.0);
  EXPECT_TRUE(node.MemoryOvercommitted());
  node.ReleaseMemory(120.0);
  EXPECT_DOUBLE_EQ(node.reserved_mb(), 0.0);
}

}  // namespace
}  // namespace fst

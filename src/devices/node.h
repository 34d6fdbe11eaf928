// A simulated compute node: a FIFO CPU server plus a simple memory model.
//
// Captures the Section 2.2.2 interference anecdotes:
//   * CPU hogs (NOW-Sort): background load inflates compute time — "a node
//     with excess CPU load reduces global sorting performance by a factor
//     of two";
//   * memory hogs (Brown & Mowry): when resident working sets exceed
//     physical memory, operations pay a swap penalty — "response time ...
//     up to 40 times worse";
//   * background operations (Gribble et al.): garbage-collection pauses are
//     injected as offline windows via attached ServiceModulators.
#ifndef SRC_DEVICES_NODE_H_
#define SRC_DEVICES_NODE_H_

#include <algorithm>
#include <functional>
#include <string>

#include "src/devices/device.h"
#include "src/obs/recorder.h"
#include "src/simcore/ring_fifo.h"
#include "src/simcore/simulator.h"
#include "src/simcore/stats.h"
#include "src/simcore/time.h"

namespace fst {

struct NodeParams {
  // Work units per second at nominal speed; tasks are sized in work units.
  double cpu_rate = 1e6;
  double memory_mb = 256.0;
  // Multiplier applied to compute time while memory is over-committed.
  double swap_penalty = 40.0;
};

class Node : public FaultableDevice {
 public:
  // Throws std::invalid_argument unless params.cpu_rate is finite and > 0.
  Node(Simulator& sim, std::string name, NodeParams params,
       EventRecorder* recorder = nullptr);

  // Enqueues `work_units` of computation; `done` fires on completion.
  // IoSink is an SBO callback: lambdas (and copyable IoCallbacks) convert
  // implicitly, and captures within the inline budget never allocate.
  void Compute(double work_units, IoSink done);

  // Registers/releases resident working-set demand (e.g. an out-of-core
  // competitor arriving). Over-commit triggers the swap penalty.
  void ReserveMemory(double mb) { reserved_mb_ += mb; }
  // Clamped at zero: unbalanced releases (e.g. a hog torn down twice) must
  // not drive demand negative and mask a later over-commit.
  void ReleaseMemory(double mb) {
    reserved_mb_ = std::max(0.0, reserved_mb_ - mb);
  }
  bool MemoryOvercommitted() const { return reserved_mb_ > params_.memory_mb; }
  double reserved_mb() const { return reserved_mb_; }

  void FailStop() override;
  void Restart() override;

  const NodeParams& params() const { return params_; }
  double tasks_completed() const { return tasks_completed_; }
  const Histogram& task_latency() const { return latency_; }
  size_t queue_depth() const { return queue_.size() + (busy_ ? 1 : 0); }

  // Compute time for `work_units` if started now (no queueing).
  Duration EstimateComputeTime(double work_units, SimTime now) const;

 private:
  struct Task {
    double work_units;
    IoSink done;
    SimTime issued;
    uint64_t trace_id = 0;  // joins this task's trace events
  };

  void MaybeStart();
  void StartService(Task task);

  Simulator& sim_;
  NodeParams params_;
  EventRecorder* recorder_ = nullptr;
  uint16_t trace_comp_ = 0;
  FifoRing<Task> queue_;
  // The in-service task parks here so scheduled completion events capture
  // only [this] — keeping every compute event inside the event queue's
  // inline callback budget regardless of the caller's capture size.
  Task current_;
  bool busy_ = false;
  double reserved_mb_ = 0.0;
  double tasks_completed_ = 0.0;
  Histogram latency_;
};

}  // namespace fst

#endif  // SRC_DEVICES_NODE_H_

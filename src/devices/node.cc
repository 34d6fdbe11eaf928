#include "src/devices/node.h"

#include <cmath>
#include <stdexcept>

namespace fst {

Node::Node(Simulator& sim, std::string name, NodeParams params,
           EventRecorder* recorder)
    : FaultableDevice(std::move(name)), sim_(sim), params_(params),
      recorder_(recorder) {
  // Compute time is work / cpu_rate seconds, cast to integer nanos.
  if (!(std::isfinite(params_.cpu_rate) && params_.cpu_rate > 0.0)) {
    throw std::invalid_argument("NodeParams.cpu_rate must be finite and > 0");
  }
  if (recorder_ != nullptr) {
    trace_comp_ = recorder_->Intern(this->name());
  }
}

Duration Node::EstimateComputeTime(double work_units, SimTime now) const {
  double secs = work_units / params_.cpu_rate;
  if (MemoryOvercommitted()) {
    secs *= params_.swap_penalty;
  }
  return Duration::Seconds(secs) * CompositeTimeFactor(now);
}

void Node::Compute(double work_units, IoSink done) {
  const SimTime now = sim_.Now();
  if (failed_) {
    if (done) {
      IoResult r;
      r.ok = false;
      r.issued = now;
      r.completed = now;
      done(r);
    }
    return;
  }
  Task task{work_units, std::move(done), now, 0};
  if (recorder_ != nullptr && recorder_->request_spans()) {
    task.trace_id = recorder_->NextRequestId();
    recorder_->RequestEnqueue(now, trace_comp_, task.trace_id, -1,
                              static_cast<double>(queue_depth() + 1));
  }
  // Idle server: skip the queue round-trip (two ~100-byte Task moves) and
  // start service directly. Identical to push-then-MaybeStart.
  if (!busy_ && queue_.empty()) {
    busy_ = true;
    StartService(std::move(task));
    return;
  }
  queue_.push_back(std::move(task));
  MaybeStart();
}

void Node::MaybeStart() {
  if (busy_ || queue_.empty() || failed_) {
    return;
  }
  Task task = std::move(queue_.front());
  queue_.pop_front();
  busy_ = true;
  StartService(std::move(task));
}

void Node::StartService(Task task) {
  const SimTime now = sim_.Now();
  // Park the in-service task in current_ so scheduled events capture only
  // [this] (+ a timestamp) and stay inside the event queue's inline budget.
  current_ = std::move(task);
  if (auto off = CompositeOffline(now); off.has_value() && !off->IsZero()) {
    sim_.Schedule(*off, [this]() {
      if (failed_) {
        if (current_.done) {
          IoResult r;
          r.ok = false;
          r.issued = current_.issued;
          r.completed = sim_.Now();
          IoSink done = std::move(current_.done);
          done(r);
        }
        busy_ = false;
        MaybeStart();
        return;
      }
      StartService(std::move(current_));
    });
    return;
  }
  const Duration service = EstimateComputeTime(current_.work_units, now);
  if (recorder_ != nullptr && current_.trace_id != 0) {
    recorder_->RequestStart(now, trace_comp_, current_.trace_id, -1,
                            now - current_.issued);
  }
  sim_.Schedule(service, [this, started = now]() {
    const SimTime done_at = sim_.Now();
    tasks_completed_ += 1.0;
    latency_.AddDuration(done_at - current_.issued);
    if (recorder_ != nullptr && current_.trace_id != 0) {
      recorder_->RequestComplete(done_at, trace_comp_, current_.trace_id, -1,
                                 started - current_.issued, done_at - started);
    }
    // Move the sink out before invoking; busy_ stays set until it returns,
    // so a synchronous re-enqueue from the callback queues (preserving the
    // original event order) instead of clobbering current_.
    IoSink done = std::move(current_.done);
    if (done) {
      IoResult r;
      r.ok = true;
      r.issued = current_.issued;
      r.completed = done_at;
      done(r);
    }
    busy_ = false;
    MaybeStart();
  });
}

void Node::Restart() {
  if (!failed_) {
    return;
  }
  failed_ = false;
  NotifyRecovery();
  MaybeStart();
}

void Node::FailStop() {
  if (failed_) {
    return;
  }
  failed_ = true;
  const SimTime now = sim_.Now();
  FifoRing<Task> doomed = std::move(queue_);
  queue_ = FifoRing<Task>();
  while (!doomed.empty()) {
    Task task = std::move(doomed.front());
    doomed.pop_front();
    if (task.done) {
      IoResult r;
      r.ok = false;
      r.issued = task.issued;
      r.completed = now;
      task.done(r);
    }
  }
  NotifyFailure();
}

}  // namespace fst

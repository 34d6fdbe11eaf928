// A small fixed-size thread pool with chunked self-scheduling parallel-for.
//
// The pool exists to fan *independent simulations* across cores: each task
// constructs its own Simulator and cluster, touches no shared mutable
// state, and writes its result into a caller-owned slot indexed by task id.
// Scheduling is dynamic (workers claim chunks of the index space via an
// atomic counter, so a slow cell does not stall its neighbors) but the
// *output* is position-addressed, so completion order never leaks into
// results.
#ifndef SRC_HARNESS_THREAD_POOL_H_
#define SRC_HARNESS_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fst {

// Workers a pool needs to run `tasks` independent tasks with up to
// `threads` threads: never more than there are tasks, and at least one.
int PoolWorkers(int threads, size_t tasks);

class ThreadPool {
 public:
  // Spawns `threads` workers (clamped to at least 1). `threads <= 0`
  // selects std::thread::hardware_concurrency().
  explicit ThreadPool(int threads = 0);

  // Drains queued tasks, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task for any worker. Fire-and-forget; exceptions thrown by
  // `task` terminate (use ParallelFor for propagation).
  void Submit(std::function<void()> task);

  // Runs body(i) for every i in [0, n), spread across the workers in
  // chunks of `chunk` consecutive indices. Blocks until all n calls have
  // returned. If any body throws, the first exception (in completion
  // order) is rethrown here after all workers stop claiming new chunks;
  // the pool remains usable afterwards.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                   size_t chunk = 1);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace fst

#endif  // SRC_HARNESS_THREAD_POOL_H_

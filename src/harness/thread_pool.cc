#include "src/harness/thread_pool.h"

#include <algorithm>
#include <utility>

namespace fst {

int PoolWorkers(int threads, size_t tasks) {
  if (static_cast<size_t>(std::max(threads, 1)) > tasks) {
    return static_cast<int>(std::max<size_t>(tasks, 1));
  }
  return std::max(threads, 1);
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(threads, 1);
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& body,
                             size_t chunk) {
  if (n == 0) {
    return;
  }
  chunk = std::max<size_t>(chunk, 1);

  // Shared job state, stack-owned: ParallelFor blocks until `pending`
  // worker tasks have all finished, so references stay valid.
  struct Job {
    std::atomic<size_t> next{0};
    std::atomic<bool> abort{false};
    std::mutex mu;
    std::condition_variable done_cv;
    std::exception_ptr first_error;
    int pending = 0;
  } job;

  const int fanout =
      static_cast<int>(std::min<size_t>(static_cast<size_t>(size()),
                                        (n + chunk - 1) / chunk));
  job.pending = fanout;

  auto drain = [&job, n, chunk, &body]() {
    for (;;) {
      const size_t start = job.next.fetch_add(chunk, std::memory_order_relaxed);
      if (start >= n || job.abort.load(std::memory_order_relaxed)) {
        break;
      }
      const size_t end = std::min(n, start + chunk);
      try {
        for (size_t i = start; i < end; ++i) {
          body(i);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.mu);
        if (!job.first_error) {
          job.first_error = std::current_exception();
        }
        job.abort.store(true, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lock(job.mu);
    if (--job.pending == 0) {
      job.done_cv.notify_all();
    }
  };

  for (int t = 1; t < fanout; ++t) {
    Submit(drain);
  }
  // The calling thread works too: a 1-thread pool still makes progress
  // even if its single worker is busy with an unrelated Submit().
  drain();

  std::unique_lock<std::mutex> lock(job.mu);
  job.done_cv.wait(lock, [&job] { return job.pending == 0; });
  if (job.first_error) {
    std::rethrow_exception(job.first_error);
  }
}

}  // namespace fst

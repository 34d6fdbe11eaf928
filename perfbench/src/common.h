// Shared plumbing for the perfbench workloads: the host clock, the
// in-memory span log, and the small JSON writer for the raw result file
// that perfbench/run.py checks and turns into metrics.
//
// Everything here is host-side measurement around public calls into the
// simulator; nothing in it touches simulated time.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

// The host's steady clock, for time budgets.
inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The measuring clock. On a shared host the CPU's speed drifts by tens of
// percent over minutes, on every vCPU at once, and a raw host time would
// read that drift as the simulator changing speed. While a ReferenceClock
// runs, a thread on a CPU of its own spins a fixed chain of dependent ALU
// operations, and NowNs() advances by kReferenceNsPerIter per iteration it
// completes: the time the measured work takes on a host that runs the loop
// at 400M iterations per second. Between iterations, and across a pause of
// the reference thread, it advances at the loop's recent speed. Without a
// ReferenceClock it is WallNs().
inline constexpr double kReferenceNsPerIter = 2.5;
int64_t NowNs();

// Runs the reference loop for NowNs() from construction to destruction.
class ReferenceClock {
 public:
  // Pins the reference thread to the last CPU of this process's affinity
  // mask and the calling thread (so every thread it starts later) to the
  // others. With fewer than two CPUs it starts nothing, and NowNs() stays
  // the steady clock.
  ReferenceClock();
  ~ReferenceClock();  // stops and joins the reference thread
  ReferenceClock(const ReferenceClock&) = delete;
  ReferenceClock& operator=(const ReferenceClock&) = delete;

  bool running() const { return thread_.joinable(); }
  // Reference loop iterations per wall second since construction.
  double ItersPerWallSecond() const;

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> iters_{0};  // loop iterations completed
  int64_t start_iters_ = 0;
  int64_t start_wall_ns_ = 0;
  std::thread thread_;
};

// Peak resident set of this process image so far (VmHWM). getrusage's
// ru_maxrss is not used: Linux carries the pre-exec high-water mark over
// exec, so it would report the launching process's footprint. 0 when
// /proc is unavailable.
inline double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

inline double NsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// One traced interval. An exact span (calls == 1) covers [start_ns, end_ns]
// and busy_ns == end_ns - start_ns. An aggregate span stands for `calls`
// back-to-back calls of one kind inside its parent: [start_ns, end_ns]
// runs from the first call's start to the last call's end, and busy_ns is
// the summed duration of the calls themselves.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t calls = 1;
  int64_t busy_ns = 0;
  int thread = 0;
};

// Accumulates one aggregate span: call Add() around each timed call.
struct SpanAggregate {
  int64_t first_ns = 0;
  int64_t last_ns = 0;
  int64_t calls = 0;
  int64_t busy_ns = 0;

  void Add(int64_t start_ns, int64_t end_ns) {
    if (calls == 0) {
      first_ns = start_ns;
    }
    last_ns = end_ns;
    ++calls;
    busy_ns += end_ns - start_ns;
  }
};

// Spans are kept in memory while the workload runs and written once at
// exit. Add() may be called from sweep worker threads.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int64_t NextId() { return next_id_.fetch_add(1) + 1; }

  // Records an exact span and returns its id.
  int64_t Exact(const std::string& name, int64_t parent, int64_t start_ns,
                int64_t end_ns, int thread = 0);
  // Records an aggregate span (no-op when it saw no calls).
  void Aggregate(const std::string& name, int64_t parent,
                 const SpanAggregate& agg, int thread = 0);
  // Records a span with a preassigned id (parents that close after their
  // children).
  void Add(Span span);

  // {"spans": [...]} with one span object per line; false on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

std::string JsonEscape(const std::string& s);

// Builds one JSON object incrementally. Numbers keep every digit (%.17g),
// so run.py compares outcome values exactly.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v);
  JsonObject& Int(const std::string& key, int64_t v);
  JsonObject& Bool(const std::string& key, bool v);
  JsonObject& Str(const std::string& key, const std::string& v);
  // `json` must already be a serialized JSON value.
  JsonObject& Raw(const std::string& key, const std::string& json);
  JsonObject& NumArray(const std::string& key, const std::vector<double>& v);

  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

// Serializes a list of already-serialized JSON values as an array.
std::string JsonArray(const std::vector<std::string>& items);

// Serializes numbers as a JSON array, every digit kept (%.17g).
std::string NumList(const std::vector<double>& v);

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int workers = 1;
};

// One timed unit of a workload's repeated work. Passes with the same key
// repeat identical simulated work; run.py keeps the fastest repeat of each
// key for the throughput metrics and the median over passes for set-up.
struct Pass {
  int64_t key = 0;
  double host_s = 0.0;   // host time of the measured work in this pass
  // The same host time split into consecutive segments, when every repeat
  // of the key runs the same segments of work in the same order; empty
  // when the pass is not split.
  std::vector<double> segments_s;
  double setup_s = 0.0;  // host time spent in constructors for this pass
  int64_t cells = 0;
  int64_t sim_ops = 0;   // simulated ops that reached a terminal outcome
};

struct RunRecord {
  std::vector<Pass> passes;
  // Per-cell host time of every cell run, and the cell's identity: cells
  // with the same key repeat identical simulated work.
  std::vector<double> cell_ms;
  std::vector<int64_t> cell_keys;
  // Per cell, its time split into segments as for Pass::segments_s (ms);
  // empty when no cell is split.
  std::vector<std::vector<double>> cell_segments_ms;
  JsonObject outputs;           // outcome-level values for the checks
  JsonObject layers;            // per-layer times and counts
  // Peak RSS once the first full set of keyed work is done, so it does not
  // grow with how many repeats a faster build fits into the run.
  double peak_rss_mb = 0.0;
};

RunRecord RunServe1m(const Options& opt, SpanLog& spans);
RunRecord RunFaultGrid(const Options& opt, SpanLog& spans);
RunRecord RunRaidSweep(const Options& opt, SpanLog& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_

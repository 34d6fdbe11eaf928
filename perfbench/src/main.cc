// perfbench_bin: runs one benchmark workload for a fixed host-time budget
// and writes its raw record (per-pass timings, per-cell times, outcome
// values, per-layer numbers, build stamp) as JSON. perfbench/run.py builds
// this binary, runs it, checks the outcomes and prints the metrics.
//
//   perfbench_bin --workload serve_1m|fault_grid|raid_sweep --seed N
//                 --seconds S --trace 0|1 --workers W --out FILE
//                 [--spans FILE]
//
// Exit status: 0 on success, 1 on bad arguments, 3 if the workload threw.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "perfbench/src/common.h"

namespace perfbench {

int64_t SpanLog::Exact(const std::string& name, int64_t parent,
                       int64_t start_ns, int64_t end_ns, int thread) {
  Span s;
  s.id = NextId();
  s.parent = parent;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.busy_ns = end_ns - start_ns;
  s.thread = thread;
  const int64_t id = s.id;
  Add(std::move(s));
  return id;
}

void SpanLog::Aggregate(const std::string& name, int64_t parent,
                        const SpanAggregate& agg, int thread) {
  if (agg.calls == 0) {
    return;
  }
  Span s;
  s.id = NextId();
  s.parent = parent;
  s.name = name;
  s.start_ns = agg.first_ns;
  s.end_ns = agg.last_ns;
  s.calls = agg.calls;
  s.busy_ns = agg.busy_ns;
  s.thread = thread;
  Add(std::move(s));
}

void SpanLog::Add(Span span) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"spans\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\": %lld, \"parent\": %lld, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"calls\": %lld, "
                 "\"busy_ns\": %lld, \"thread\": %d}",
                 i == 0 ? "" : ",\n", static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), JsonEscape(s.name).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.calls),
                 static_cast<long long>(s.busy_ns), s.thread);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) {
    body_ += ", ";
  }
  body_ += "\"" + JsonEscape(key) + "\": ";
}

JsonObject& JsonObject::Num(const std::string& key, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  Key(key);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t v) {
  Key(key);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += "\"" + JsonEscape(v) + "\"";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

JsonObject& JsonObject::NumArray(const std::string& key,
                                 const std::vector<double>& v) {
  Key(key);
  body_ += NumList(v);
  return *this;
}

std::string NumList(const std::vector<double>& v) {
  std::string out = "[";
  char buf[40];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ", ", v[i]);
    out += buf;
  }
  return out + "]";
}

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out += ",\n";
    }
    out += items[i];
  }
  return out + "]";
}

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve_1m|fault_grid|raid_sweep --seed N "
               "--seconds S --trace 0|1 --workers W --out FILE [--spans FILE]\n",
               argv0);
  return 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string out_path;
  std::string spans_path;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = val;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (flag == "--trace") {
      opt.trace = val == "1";
    } else if (flag == "--workers") {
      opt.workers = std::atoi(val.c_str());
    } else if (flag == "--out") {
      out_path = val;
    } else if (flag == "--spans") {
      spans_path = val;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !have_seed || out_path.empty() || opt.workers < 1 ||
      !(opt.seconds > 0.0)) {
    return Usage(argv[0]);
  }

  SpanLog spans(opt.trace && !spans_path.empty());
  RunRecord rec;
  bool reference_clock = false;
  double reference_rate = 0.0;
  try {
    // Untraced runs measure on the reference clock. Traced runs read the
    // clock per call, which would keep pulling the reference thread's
    // counter across CPUs, so their layer times are steady-clock times.
    std::unique_ptr<ReferenceClock> clock;
    if (!opt.trace) {
      clock = std::make_unique<ReferenceClock>();
    }
    if (opt.workload == "serve_1m") {
      rec = RunServe1m(opt, spans);
    } else if (opt.workload == "fault_grid") {
      rec = RunFaultGrid(opt, spans);
    } else if (opt.workload == "raid_sweep") {
      rec = RunRaidSweep(opt, spans);
    } else {
      return Usage(argv[0]);
    }
    if (clock != nullptr && clock->running()) {
      reference_clock = true;
      reference_rate = clock->ItersPerWallSecond();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_bin: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 3;
  }
  std::vector<std::string> passes;
  for (const Pass& p : rec.passes) {
    passes.push_back(JsonObject()
                         .Int("key", p.key)
                         .Num("host_s", p.host_s)
                         .NumArray("segments_s", p.segments_s)
                         .Num("setup_s", p.setup_s)
                         .Int("cells", p.cells)
                         .Int("sim_ops", p.sim_ops)
                         .str());
  }
  std::vector<std::string> cell_segments;
  for (const std::vector<double>& segs : rec.cell_segments_ms) {
    cell_segments.push_back(NumList(segs));
  }
  JsonObject stamp;
  stamp.Str("compiler", __VERSION__)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Bool("lto", PERFBENCH_LTO != 0)
      .Int("workers", opt.workers)
      .Str("clock", reference_clock ? "reference" : "steady")
      .Num("reference_iters_per_s", reference_rate);
  JsonObject doc;
  doc.Str("workload", opt.workload)
      .Int("seed", static_cast<int64_t>(opt.seed))
      .Bool("trace", opt.trace)
      .Raw("stamp", stamp.str())
      .Raw("passes", JsonArray(passes))
      .NumArray("cell_ms", rec.cell_ms)
      .NumArray("cell_keys", std::vector<double>(rec.cell_keys.begin(),
                                                 rec.cell_keys.end()))
      .Raw("cell_segments_ms", JsonArray(cell_segments))
      .Raw("outputs", rec.outputs.str())
      .Raw("layers", rec.layers.str())
      .Num("peak_rss_mb", rec.peak_rss_mb);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr || std::fputs((doc.str() + "\n").c_str(), f) < 0 ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "perfbench_bin: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (spans.enabled() && !spans.WriteJson(spans_path)) {
    std::fprintf(stderr, "perfbench_bin: cannot write %s\n",
                 spans_path.c_str());
    return 1;
  }
  return 0;
}

#include "src/harness/sweep.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/harness/thread_pool.h"
#include "src/obs/export.h"

namespace fst {

namespace {

// Fixed, locale-independent number rendering for reports. %.17g is
// round-trip exact for doubles, so aggregation never loses precision and
// the bytes are identical for identical values.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string SweepAxis::Label(size_t i) const {
  if (i < labels.size()) {
    return labels[i];
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", values[i]);
  return buf;
}

size_t SweepSpec::ConfigCount() const {
  size_t n = 1;
  for (const auto& axis : axes) {
    n *= axis.values.size();
  }
  return n;
}

size_t SweepSpec::CellCount() const {
  return ConfigCount() * seeds.size() * static_cast<size_t>(reps < 1 ? 0 : reps);
}

double CellPoint::Value(const std::string& axis) const {
  for (size_t i = 0; i < spec->axes.size(); ++i) {
    if (spec->axes[i].name == axis) {
      return values[i];
    }
  }
  throw std::out_of_range("CellPoint::Value: no axis named '" + axis + "'");
}

std::string CellPoint::Label(size_t axis) const {
  return spec->axes[axis].Label(axis_index[axis]);
}

SweepRunner::SweepRunner(int threads)
    : threads_(threads > 0 ? threads : ThreadsFromEnv()) {}

int SweepRunner::ThreadsFromEnv() {
  if (const char* env = std::getenv("FST_SWEEP_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) {
      return n;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

CellPoint SweepRunner::PointAt(const SweepSpec& spec, size_t index) {
  const size_t reps = static_cast<size_t>(spec.reps);
  const size_t seeds = spec.seeds.size();
  CellPoint p;
  p.spec = &spec;
  p.index = index;
  p.rep = static_cast<int>(index % reps);
  const size_t seed_index = (index / reps) % seeds;
  p.seed = spec.seeds[seed_index];
  p.config_index = index / (reps * seeds);
  // Row-major over axes: axes[0] is outermost.
  p.axis_index.resize(spec.axes.size());
  p.values.resize(spec.axes.size());
  size_t rem = p.config_index;
  for (size_t a = spec.axes.size(); a-- > 0;) {
    const size_t n = spec.axes[a].values.size();
    p.axis_index[a] = rem % n;
    p.values[a] = spec.axes[a].values[p.axis_index[a]];
    rem /= n;
  }
  return p;
}

std::vector<CellPoint> SweepRunner::Enumerate(const SweepSpec& spec) {
  std::vector<CellPoint> points;
  const size_t n = spec.CellCount();
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back(PointAt(spec, i));
  }
  return points;
}

std::vector<CellResult> SweepRunner::Run(const SweepSpec& spec,
                                         const CellFn& fn) const {
  const size_t n = spec.CellCount();
  std::vector<CellResult> results(n);
  ThreadPool pool(PoolWorkers(threads_, n));
  // Position-addressed writes: cell i's result goes to results[i] no
  // matter which worker computes it or when it finishes.
  pool.ParallelFor(n, [&spec, &fn, &results](size_t i) {
    CellPoint point = PointAt(spec, i);
    results[i] = fn(point);
    results[i].point = std::move(point);
  });
  return results;
}

std::vector<SweepGroup> SummarizeByConfig(
    const SweepSpec& spec, const std::vector<CellResult>& results) {
  std::vector<SweepGroup> groups(spec.ConfigCount());
  std::vector<std::vector<double>> samples(groups.size());
  for (const auto& r : results) {
    samples[r.point.config_index].push_back(r.value);
  }
  for (size_t c = 0; c < groups.size(); ++c) {
    // Reuse the enumeration to recover this config's coordinates.
    const CellPoint p =
        SweepRunner::PointAt(spec, c * spec.seeds.size() *
                                       static_cast<size_t>(spec.reps));
    groups[c].config_index = c;
    groups[c].axis_index = p.axis_index;
    groups[c].axis_values = p.values;
    groups[c].stats = Summarize(samples[c]);
  }
  return groups;
}

std::string SweepReportJson(const SweepSpec& spec,
                            const std::vector<CellResult>& results) {
  std::ostringstream out;
  out << "{\"sweep\":\"" << JsonEscape(spec.name) << "\",";
  out << "\"axes\":[";
  for (size_t a = 0; a < spec.axes.size(); ++a) {
    const auto& axis = spec.axes[a];
    out << (a ? "," : "") << "{\"name\":\"" << JsonEscape(axis.name)
        << "\",\"values\":[";
    for (size_t i = 0; i < axis.values.size(); ++i) {
      out << (i ? "," : "") << Num(axis.values[i]);
    }
    out << "],\"labels\":[";
    for (size_t i = 0; i < axis.values.size(); ++i) {
      out << (i ? "," : "") << "\"" << JsonEscape(axis.Label(i)) << "\"";
    }
    out << "]}";
  }
  out << "],\"seeds\":[";
  for (size_t i = 0; i < spec.seeds.size(); ++i) {
    out << (i ? "," : "") << spec.seeds[i];
  }
  out << "],\"reps\":" << spec.reps << ",";

  out << "\"cells\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << (i ? "," : "") << "{\"index\":" << r.point.index << ",\"axis\":[";
    for (size_t a = 0; a < r.point.axis_index.size(); ++a) {
      out << (a ? "," : "") << r.point.axis_index[a];
    }
    out << "],\"seed\":" << r.point.seed << ",\"rep\":" << r.point.rep
        << ",\"value\":" << Num(r.value) << ",\"fire_digest\":\"";
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(r.fire_digest));
    out << hex << "\",\"events\":" << r.events_fired;
    for (const auto& [name, value] : r.metrics) {
      out << ",\"" << JsonEscape(name) << "\":" << Num(value);
    }
    out << "}";
  }
  out << "],";

  const auto groups = SummarizeByConfig(spec, results);
  out << "\"configs\":[";
  for (size_t c = 0; c < groups.size(); ++c) {
    const auto& g = groups[c];
    out << (c ? "," : "") << "{\"axis\":[";
    for (size_t a = 0; a < g.axis_index.size(); ++a) {
      out << (a ? "," : "") << g.axis_index[a];
    }
    out << "],\"n\":" << g.stats.n << ",\"mean\":" << Num(g.stats.mean)
        << ",\"ci95\":" << Num(g.stats.ci95) << ",\"min\":" << Num(g.stats.min)
        << ",\"max\":" << Num(g.stats.max)
        << ",\"median\":" << Num(g.stats.median)
        << ",\"p95\":" << Num(g.stats.p95) << "}";
  }
  out << "]}";
  return out.str();
}

std::string SweepReportCsv(const SweepSpec& spec,
                           const std::vector<CellResult>& results) {
  std::ostringstream out;
  out << "index";
  for (const auto& axis : spec.axes) {
    out << "," << axis.name;
  }
  out << ",seed,rep,value,fire_digest";
  // Metric columns come from the first cell; all cells of one sweep are
  // expected to report the same metric set.
  if (!results.empty()) {
    for (const auto& [name, value] : results[0].metrics) {
      (void)value;
      out << "," << name;
    }
  }
  out << "\n";
  for (const auto& r : results) {
    out << r.point.index;
    for (size_t a = 0; a < r.point.axis_index.size(); ++a) {
      out << "," << spec.axes[a].Label(r.point.axis_index[a]);
    }
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(r.fire_digest));
    out << "," << r.point.seed << "," << r.point.rep << "," << Num(r.value)
        << "," << hex;
    for (const auto& [name, value] : r.metrics) {
      (void)name;
      out << "," << Num(value);
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace fst

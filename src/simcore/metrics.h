// A lightweight metric registry: named counters, gauges, and histograms
// that components create once and update on the hot path. The analysis
// layer snapshots the registry at the end of a run.
#ifndef SRC_SIMCORE_METRICS_H_
#define SRC_SIMCORE_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/simcore/stats.h"

namespace fst {

class Counter {
 public:
  void Increment(double by = 1.0) { value_ += by; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

class MetricRegistry {
 public:
  // Lookups create the metric on first use; returned references remain
  // valid for the registry's lifetime.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // Numeric histogram digest for machine-readable exports.
  struct HistogramStats {
    uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };

  // Flat snapshot: counters and gauges by value, histograms both as
  // human-readable summaries and as numeric digests.
  struct Snapshot {
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, std::string> histogram_summaries;
    std::map<std::string, HistogramStats> histograms;
  };
  Snapshot Snap() const;

  // Renders the snapshot as "name value" lines, sorted by name.
  std::string Dump() const;

  void ResetAll();

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace fst

#endif  // SRC_SIMCORE_METRICS_H_

// Machine-readable benchmark output.
//
// Every bench binary that tracks a trajectory funnels its results through
// one BenchReport so the repo emits a uniform BENCH_<name>.json artifact
// per run: a flat list of (bench, metric, value, unit) rows plus free-form
// string notes. CI uploads these as artifacts, and bench/compare_baseline.py
// gates a report's simulated rows against bench/baseline/<name>.json where
// one is checked in, so numbers stop scrolling away in job logs.
#pragma once

#include <string>
#include <vector>

#include "util/json.hpp"

namespace lts::exp {

class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Records one measured value. `bench` groups rows belonging to the same
  /// benchmark case (e.g. "shuffle_storm/10000"), `metric` names the
  /// quantity (e.g. "optimized_seconds").
  void add(const std::string& bench, const std::string& metric, double value,
           const std::string& unit = "");

  /// Free-form metadata (compiler, build type, workload shape, ...).
  void note(const std::string& key, const std::string& value);

  Json to_json() const;

  /// Writes pretty-printed JSON (with trailing newline) to `path`.
  void write(const std::string& path) const;

 private:
  struct Row {
    std::string bench;
    std::string metric;
    double value = 0.0;
    std::string unit;
  };

  std::string name_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<Row> rows_;
};

}  // namespace lts::exp

// Descriptive statistics helpers used by telemetry, feature construction and
// the ML metrics module.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace lts {

/// Streaming mean/variance accumulator (Welford). Numerically stable for the
/// long telemetry streams the exporters produce.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exponential moving average with a configurable time constant; mirrors how
/// node-exporter style load averages decay.
class Ema {
 public:
  /// `tau` is the decay time constant in the same unit as the update
  /// timestamps (seconds of simulated time for LTS exporters).
  explicit Ema(double tau) : tau_(tau) {}

  /// Folds in observation `x` taken at time `t`. Observations must arrive
  /// in nondecreasing time order; a late one (t earlier than the last
  /// update, which a delayed telemetry pipeline can legally deliver) is
  /// dropped, returning false, rather than corrupting the decayed state.
  bool update(double t, double x);
  double value() const { return value_; }
  bool empty() const { return !initialized_; }

 private:
  double tau_;
  double value_ = 0.0;
  double last_t_ = 0.0;
  bool initialized_ = false;
};

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  // population variance
double stddev(std::span<const double> xs);
double max_of(std::span<const double> xs);
double sum(std::span<const double> xs);

/// Linear-interpolated percentile, q in [0, 100]. Copies + sorts; intended
/// for reporting paths, not hot loops.
double percentile(std::span<const double> xs, double q);

}  // namespace lts

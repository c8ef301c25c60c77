// lts::obs metrics: a Prometheus-flavored instrumentation registry.
//
// Counters, gauges, and fixed-bucket histograms, addressable by (name,
// labels), with Prometheus text-format export. The process-wide registry is
// OFF by default: every instrument holds a pointer to its registry's enabled
// flag and turns inc()/set()/observe() into a single predictable branch when
// disabled, so hot paths (the simulation engine, the flow solver, the TSDB)
// can stay instrumented permanently without perturbing benchmarks or the
// golden replay. Instrument references returned by the registry stay valid
// for the registry's lifetime; reset_values() zeroes them without
// invalidating anything.
//
// Values are observational only — nothing in the simulator may read them
// back to make decisions, which is what keeps enabled/disabled runs
// bit-identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace lts::obs {

using Labels = std::map<std::string, std::string>;

class MetricsRegistry;

/// Monotonically increasing value (events processed, samples dropped, ...).
class Counter {
 public:
  void inc(double delta = 1.0) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

/// Instantaneous value (queue depth, active flows, ...).
class Gauge {
 public:
  void set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(double delta) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

/// Fixed-boundary histogram. Boundaries are inclusive upper bounds
/// (Prometheus `le` semantics); an implicit +Inf bucket catches the rest.
class Histogram {
 public:
  void observe(double v);

  const std::vector<double>& boundaries() const { return bounds_; }
  /// Per-bucket counts, NOT cumulative; index bounds_.size() is +Inf.
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Histogram(const std::atomic<bool>* enabled, std::vector<double> bounds);
  const std::atomic<bool>* enabled_;
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds + 1 (+Inf)
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Stable pointer to the enabled flag, for hot paths that want to cache
  /// it once and skip the global() static-init guard on every check.
  const std::atomic<bool>* enabled_flag() const { return &enabled_; }

  /// Finds or creates the instrument with this identity. A name registered
  /// as one kind cannot be reused as another (throws lts::Error), and a
  /// histogram's boundaries are fixed by its first registration.
  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = "");
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& boundaries,
                       const Labels& labels = {},
                       const std::string& help = "");

  std::size_t num_instruments() const;

  /// Zeroes every instrument's value; registrations (and references handed
  /// out) survive. Used between test cases and CLI invocations.
  void reset_values();

  /// Prometheus text exposition format, families sorted by name.
  std::string prometheus_text() const;

  /// Process-wide registry used by the library's built-in instrumentation.
  /// Disabled by default.
  static MetricsRegistry& global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Child {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::vector<double> boundaries;  // histograms only
    // label-key string -> instrument; std::map keeps export deterministic.
    std::map<std::string, Child> children;
  };

  Family& family_for(const std::string& name, Kind kind,
                     const std::string& help);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

/// Shorthand accessors against the global registry.
inline Counter& counter(const std::string& name, const Labels& labels = {},
                        const std::string& help = "") {
  return MetricsRegistry::global().counter(name, labels, help);
}
inline Gauge& gauge(const std::string& name, const Labels& labels = {},
                    const std::string& help = "") {
  return MetricsRegistry::global().gauge(name, labels, help);
}
inline Histogram& histogram(const std::string& name,
                            const std::vector<double>& boundaries,
                            const Labels& labels = {},
                            const std::string& help = "") {
  return MetricsRegistry::global().histogram(name, boundaries, labels, help);
}

}  // namespace lts::obs

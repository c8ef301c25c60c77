// A single time series: bounded ring buffer of (time, value) samples.
//
// Capacity bounds memory like a Prometheus retention window; the scheduler
// only ever looks at the recent past, so old samples age out silently. The
// ring grows on demand up to its capacity and wraps from there, so a young
// series (a freshly warmed environment holds ~20 samples per series) costs
// only what it holds to build and to copy.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace lts::telemetry {

struct Sample {
  SimTime t = 0.0;
  double v = 0.0;
};

class Series {
 public:
  explicit Series(std::size_t capacity = 720);

  /// Appends a sample. Timestamps must be nondecreasing within the series;
  /// a sample older than the latest retained one (which a delayed exporter
  /// pipeline can legally deliver) is dropped, returning false. Dropping —
  /// instead of aborting — matches Prometheus out-of-order ingestion
  /// behavior: one late sample must not kill the whole pipeline.
  bool append(SimTime t, double v);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }

  /// i = 0 is the oldest retained sample.
  const Sample& at(std::size_t i) const;
  const Sample& latest() const;

  /// The samples with t in [t_from, t_to] as an index range [first, last)
  /// of at(), oldest first. O(log size) to find the window plus O(samples
  /// in it); nothing is copied.
  std::pair<std::size_t, std::size_t> window(SimTime t_from,
                                             SimTime t_to) const;

  /// Number of adjacent-sample decreases (cumulative-counter resets) whose
  /// both endpoints lie in [t_from, t_to]. Decreases are indexed at append
  /// time, so this walks a (normally empty) side list rather than rescanning
  /// the window.
  std::size_t num_decreases_between(SimTime t_from, SimTime t_to) const;

 private:
  /// A sample that arrived smaller than its predecessor: the pair of
  /// timestamps it happened between. Rare (counter resets), so kept as a
  /// sorted side list pruned as samples age out of the ring.
  struct Decrease {
    SimTime t_prev = 0.0;
    SimTime t_curr = 0.0;
  };

  std::vector<Sample> buffer_;  // grows to capacity_, then wraps
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of oldest
  std::size_t size_ = 0;
  std::vector<Decrease> decreases_;  // ordered by t_prev
};

}  // namespace lts::telemetry

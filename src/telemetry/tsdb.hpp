// Prometheus-like time-series store with labeled series and the query
// primitives the scheduler's Telemetry Fetcher uses: instant lookup, counter
// rate over a window, and aggregations over time windows.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/series.hpp"
#include "util/common.hpp"

namespace lts::telemetry {

using Labels = std::map<std::string, std::string>;

/// Canonical series identity string: name{k1="v1",k2="v2"}.
std::string encode_series_key(const std::string& name, const Labels& labels);

/// Dense handle of one (metric, labels) pair, from Tsdb::intern(). Valid in
/// the Tsdb that issued it and in every copy of that Tsdb.
using SeriesId = std::uint32_t;

class Tsdb {
 public:
  explicit Tsdb(std::size_t series_capacity = 720);

  /// Resolves a (metric, labels) pair to its id, registering the pair on
  /// first use. Registering creates no series: until its first append an
  /// interned pair is invisible to num_series(), find(), select() and every
  /// query, so exporters may intern everything they could ever export.
  SeriesId intern(const std::string& name, const Labels& labels);

  /// Appends a sample to an interned series, creating the series on its
  /// first append. A sample older than its series' newest retained one is
  /// dropped (counted in num_samples_dropped() and in the global obs
  /// counter telemetry_out_of_order_dropped_total) rather than aborting
  /// ingestion. This is the exporters' per-scrape path: no key encoding,
  /// no lookup.
  void append(SeriesId id, SimTime t, double v);

  void append(const std::string& name, const Labels& labels, SimTime t,
              double v) {
    append(intern(name, labels), t, v);
  }

  /// Series lookup; nullptr when it does not exist.
  const Series* find(const std::string& name, const Labels& labels) const;

  /// All series with the given metric name, with their labels.
  std::vector<std::pair<Labels, const Series*>> select(
      const std::string& name) const;

  std::size_t num_series() const { return num_series_; }
  std::uint64_t num_samples() const { return samples_appended_; }
  std::uint64_t num_samples_dropped() const { return samples_dropped_; }

  // ---- query primitives ----

  /// Most recent value, or nullopt if the series is missing/empty.
  std::optional<double> latest(const std::string& name,
                               const Labels& labels) const;

  /// Timestamp of the most recent sample, or nullopt if missing/empty.
  /// The snapshot builder uses this to measure per-node telemetry
  /// staleness (silenced or crashed exporters stop appending).
  std::optional<SimTime> latest_time(const std::string& name,
                                     const Labels& labels) const;

  /// Counter rate over samples in [now - window, now]: total increase
  /// divided by the window's time extent, with Prometheus `rate()` counter
  /// reset handling (a decrease means the counter restarted from zero, so
  /// the post-reset value is added back; resets are counted in the global
  /// obs counter telemetry_counter_resets_total). Never negative. Returns 0
  /// when fewer than two samples fall in the window.
  double rate(const std::string& name, const Labels& labels, SimTime now,
              SimTime window) const;

  /// Mean of samples in [now - window, now]; nullopt if none.
  std::optional<double> avg_over_time(const std::string& name,
                                      const Labels& labels, SimTime now,
                                      SimTime window) const;

  std::optional<double> max_over_time(const std::string& name,
                                      const Labels& labels, SimTime now,
                                      SimTime window) const;

  std::optional<double> stddev_over_time(const std::string& name,
                                         const Labels& labels, SimTime now,
                                         SimTime window) const;

 private:
  /// The interned pairs: each id's metric name and labels, and each
  /// encoded key's id. Copies share one directory, so a fork copies no
  /// names or labels; intern() grows a private clone of a shared one, so
  /// no Tsdb ever writes a directory another one reads.
  struct Directory {
    std::vector<std::pair<std::string, Labels>> pairs;  // by SeriesId
    std::map<std::string, SeriesId> ids;
  };

  std::size_t series_capacity_;
  std::uint64_t samples_appended_ = 0;
  std::uint64_t samples_dropped_ = 0;
  std::shared_ptr<Directory> directory_;
  // Samples by SeriesId, grown by appends. A series is created on its
  // first append and joins by_name_ then, in creation order (select()'s
  // order).
  std::vector<Series> series_;
  std::map<std::string, std::vector<SeriesId>> by_name_;
  std::size_t num_series_ = 0;
};

}  // namespace lts::telemetry

// Telemetry Fetcher (§3.2.3): queries the metrics server at scheduling time
// for the most recent telemetry snapshot of every candidate node.
//
// Serving-path addition: fetches are memoized behind an epoch-keyed cache,
// so a queue of pending pods scheduled at the same instant pays for one
// TSDB sweep instead of one per pod. The cache key is (tsdb epoch, now):
//
//   - build_snapshot is a pure function of (tsdb contents, now, options),
//     and the TSDB epoch advances on every append attempt, so an equal
//     epoch means a rebuild would return bit-identical rows;
//   - `now` is part of the key because the degradation pipeline
//     (annotate_staleness, impute_stale_nodes) is a function of `now` too —
//     a snapshot cached at t must never be reused at t' with t-relative
//     staleness flags (the cache and schedule_from_snapshot would otherwise
//     disagree on which nodes to demote);
//   - fault paths that change telemetry interpretation without appending
//     (node recovery's counter reset, exporter silence/unsilence) bump the
//     epoch explicitly, so no stale feature ever crosses an epoch boundary.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/snapshot.hpp"
#include "telemetry/tsdb.hpp"

namespace lts::core {

/// Degradation policy (fault tolerance): how the fetcher treats nodes whose
/// exporters stopped reporting. Off by default — the paper's pipeline
/// assumes healthy telemetry, and with `enabled = false` fetch() returns
/// exactly the raw snapshot it always has. Enabled, it flags stale rows and
/// replaces their telemetry with the median of the fresh rows, so a silent
/// node scores as "average" instead of as a phantom idle node.
struct DegradationOptions {
  bool enabled = false;
  /// A node is stale if its exporter heartbeat is older than this (seconds)
  /// at snapshot time, or it never reported. A few scrape intervals.
  SimTime max_staleness = 10.0;
};

class TelemetryFetcher {
 public:
  TelemetryFetcher(const telemetry::Tsdb& tsdb,
                   std::vector<std::string> node_names,
                   telemetry::SnapshotOptions options = {},
                   DegradationOptions degradation = {});

  /// Snapshot of all candidate nodes as of `now`. With degradation enabled,
  /// rows are annotated for staleness and stale rows imputed. Served from
  /// the cache when (epoch, now) matches the previous fetch; the result is
  /// bit-identical either way.
  telemetry::ClusterSnapshot fetch(SimTime now) const;

  /// Like fetch(), but returns the shared cached snapshot without copying —
  /// the batched scheduling path holds this across a whole pod queue.
  /// Cache hits increment lts_snapshot_cache_hits_total; rebuilds (epoch
  /// advanced, different `now`, cold or disabled cache) increment
  /// lts_snapshot_cache_misses_total.
  std::shared_ptr<const telemetry::ClusterSnapshot> fetch_shared(
      SimTime now) const;

  /// Disabling bypasses memoization entirely (every fetch sweeps the TSDB);
  /// used by benchmarks to measure the uncached path honestly.
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }

  const std::vector<std::string>& node_names() const { return node_names_; }
  const DegradationOptions& degradation() const { return degradation_; }

 private:
  /// Guarded single-entry memo. Held behind a shared_ptr so the by-value
  /// fetcher copies inside schedulers share one cache with their source.
  struct SnapshotCache {
    std::mutex mu;
    std::uint64_t epoch = 0;
    SimTime at = 0.0;
    std::shared_ptr<const telemetry::ClusterSnapshot> snapshot;  // null=cold
  };

  std::shared_ptr<const telemetry::ClusterSnapshot> build(SimTime now) const;

  const telemetry::Tsdb& tsdb_;
  std::vector<std::string> node_names_;
  telemetry::SnapshotOptions options_;
  DegradationOptions degradation_;
  std::shared_ptr<SnapshotCache> cache_;
  bool cache_enabled_ = true;
};

}  // namespace lts::core

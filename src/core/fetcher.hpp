// Telemetry Fetcher (§3.2.3): queries the metrics server at scheduling time
// for the most recent telemetry snapshot of every candidate node. It returns
// telemetry as scraped; how far to trust a row that stopped arriving is the
// scheduler's policy (LtsScheduler's degraded mode), not the fetcher's.
//
// Serving-path addition: fetches are memoized behind an epoch-keyed cache,
// so a queue of pending pods scheduled at the same instant pays for one
// TSDB sweep instead of one per pod. The cache key is (tsdb epoch, now):
//
//   - build_snapshot is a pure function of (tsdb contents, now, options),
//     and the TSDB epoch advances on every append attempt, so an equal
//     epoch means a rebuild would return bit-identical rows;
//   - `now` is part of the key because the windowed queries (NIC rates,
//     the averaged RTTs and rich telemetry) look back from `now`, and the
//     snapshot is stamped with it: a snapshot cached at t is never reused
//     at t';
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

class TelemetryFetcher {
 public:
  TelemetryFetcher(const telemetry::Tsdb& tsdb,
                   std::vector<std::string> node_names,
                   telemetry::SnapshotOptions options = {});

  /// Snapshot of all candidate nodes as of `now`. Served from the cache
  /// when (epoch, now) matches the previous fetch; the result is
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
  std::shared_ptr<SnapshotCache> cache_;
  bool cache_enabled_ = true;
};

}  // namespace lts::core

#include "core/fetcher.hpp"

#include "obs/metrics.hpp"

namespace lts::core {
namespace {

struct FetcherMetrics {
  obs::Counter& hits = obs::counter(
      "lts_snapshot_cache_hits_total", {},
      "Snapshot fetches served from the epoch-keyed cache (no TSDB sweep)");
  obs::Counter& misses = obs::counter(
      "lts_snapshot_cache_misses_total", {},
      "Snapshot fetches that swept the TSDB (epoch advanced, different "
      "fetch time, cold cache, or cache disabled)");
  static FetcherMetrics& get() {
    static FetcherMetrics m;
    return m;
  }
};

}  // namespace

TelemetryFetcher::TelemetryFetcher(const telemetry::Tsdb& tsdb,
                                   std::vector<std::string> node_names,
                                   telemetry::SnapshotOptions options)
    : tsdb_(tsdb),
      node_names_(std::move(node_names)),
      options_(options),
      cache_(std::make_shared<SnapshotCache>()) {
  LTS_REQUIRE(!node_names_.empty(), "TelemetryFetcher: no nodes");
}

std::shared_ptr<const telemetry::ClusterSnapshot> TelemetryFetcher::build(
    SimTime now) const {
  return std::make_shared<const telemetry::ClusterSnapshot>(
      telemetry::build_snapshot(tsdb_, node_names_, now, options_));
}

std::shared_ptr<const telemetry::ClusterSnapshot>
TelemetryFetcher::fetch_shared(SimTime now) const {
  auto& metrics = FetcherMetrics::get();
  if (!cache_enabled_) {
    metrics.misses.inc();
    return build(now);
  }
  // The epoch is read before the sweep: an append landing in between would
  // store fresh content under the older epoch, which only costs one
  // redundant rebuild at the next fetch — never a stale hit.
  const std::uint64_t epoch = tsdb_.epoch();
  {
    const std::lock_guard<std::mutex> lock(cache_->mu);
    if (cache_->snapshot != nullptr && cache_->epoch == epoch &&
        cache_->at == now) {
      metrics.hits.inc();
      return cache_->snapshot;
    }
  }
  auto snapshot = build(now);
  metrics.misses.inc();
  const std::lock_guard<std::mutex> lock(cache_->mu);
  cache_->epoch = epoch;
  cache_->at = now;
  cache_->snapshot = snapshot;
  return snapshot;
}

telemetry::ClusterSnapshot TelemetryFetcher::fetch(SimTime now) const {
  return *fetch_shared(now);
}

}  // namespace lts::core

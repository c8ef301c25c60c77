#include "core/fetcher.hpp"

namespace lts::core {

TelemetryFetcher::TelemetryFetcher(const telemetry::Tsdb& tsdb,
                                   std::vector<std::string> node_names,
                                   telemetry::SnapshotOptions options)
    : tsdb_(tsdb), node_names_(std::move(node_names)), options_(options) {
  LTS_REQUIRE(!node_names_.empty(), "TelemetryFetcher: no nodes");
}

telemetry::ClusterSnapshot TelemetryFetcher::fetch(SimTime now) const {
  return telemetry::build_snapshot(tsdb_, node_names_, now, options_);
}

}  // namespace lts::core

// Telemetry Fetcher (§3.2.3): queries the metrics server at scheduling time
// for the most recent telemetry snapshot of every candidate node. It returns
// telemetry as scraped; how far to trust a row that stopped arriving is the
// scheduler's policy (LtsScheduler's degraded mode), not the fetcher's.
// Every fetch sweeps the TSDB; a queue ranked by schedule_many shares one.
#pragma once

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

  /// Snapshot of all candidate nodes as of `now`.
  telemetry::ClusterSnapshot fetch(SimTime now) const;

  /// No-op. Its only caller is perfbench/lts_perfbench.cpp:843, which
  /// changes only together with the benchmark.
  void set_cache_enabled(bool /*enabled*/) {}

  const std::vector<std::string>& node_names() const { return node_names_; }

 private:
  const telemetry::Tsdb& tsdb_;
  std::vector<std::string> node_names_;
  telemetry::SnapshotOptions options_;
};

}  // namespace lts::core

#include "telemetry/snapshot.hpp"

#include <cmath>

#include "telemetry/exporters.hpp"
#include "util/stats.hpp"

namespace lts::telemetry {

const NodeTelemetry& ClusterSnapshot::by_name(const std::string& node) const {
  for (const auto& n : nodes) {
    if (n.node == node) return n;
  }
  throw Error("ClusterSnapshot: no node named " + node);
}

ClusterSnapshot build_snapshot(const Tsdb& tsdb,
                               const std::vector<std::string>& node_names,
                               SimTime now, SnapshotOptions options) {
  ClusterSnapshot snapshot;
  snapshot.at = now;
  snapshot.nodes.reserve(node_names.size());
  for (const auto& name : node_names) {
    NodeTelemetry t;
    t.node = name;
    const Labels node_labels{{"node", name}};

    // RTT statistics across all peers. Each per-peer value is averaged over
    // the lookback window (several ping rounds), which suppresses
    // single-probe measurement noise while still reflecting current
    // congestion.
    std::vector<double> rtts;
    for (const auto& peer : node_names) {
      if (peer == name) continue;
      const auto rtt = tsdb.avg_over_time(
          kPingRttMetric, Labels{{"src", name}, {"dst", peer}}, now,
          options.rate_window);
      if (rtt.has_value()) rtts.push_back(*rtt);
    }
    if (!rtts.empty()) {
      t.rtt_mean = mean(rtts);
      t.rtt_max = max_of(rtts);
      t.rtt_std = stddev(rtts);
    }

    t.tx_rate =
        tsdb.rate(kTxBytesMetric, node_labels, now, options.rate_window);
    t.rx_rate =
        tsdb.rate(kRxBytesMetric, node_labels, now, options.rate_window);
    t.cpu_load = tsdb.latest(kCpuLoadMetric, node_labels).value_or(0.0);
    t.mem_available =
        tsdb.latest(kMemAvailableMetric, node_labels).value_or(0.0);

    // Freshness: the node exporter's cpu-load series doubles as its
    // heartbeat — every scrape appends it first.
    const auto seen = tsdb.latest_time(kCpuLoadMetric, node_labels);
    t.has_data = seen.has_value();
    t.last_seen = seen.value_or(0.0);

    // Rich telemetry: averaged over the lookback window (instantaneous
    // utilization is spiky); zero when the exporters don't emit it.
    t.uplink_util = tsdb.avg_over_time(kUplinkUtilMetric, node_labels, now,
                                       options.rate_window)
                        .value_or(0.0);
    t.downlink_util = tsdb.avg_over_time(kDownlinkUtilMetric, node_labels,
                                         now, options.rate_window)
                          .value_or(0.0);
    t.queue_delay = tsdb.avg_over_time(kQueueDelayMetric, node_labels, now,
                                       options.rate_window)
                        .value_or(0.0);
    t.active_flows = tsdb.avg_over_time(kActiveFlowsMetric, node_labels, now,
                                        options.rate_window)
                         .value_or(0.0);
    snapshot.nodes.push_back(std::move(t));
  }
  return snapshot;
}

}  // namespace lts::telemetry

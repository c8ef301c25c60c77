// Cluster snapshot: the per-node telemetry digest the scheduler's Telemetry
// Fetcher assembles at decision time (§3.2.3). One NodeTelemetry per node,
// carrying exactly the network- and node-level quantities of Table 1.
#pragma once

#include <string>
#include <vector>

#include "telemetry/tsdb.hpp"
#include "util/common.hpp"

namespace lts::telemetry {

struct NodeTelemetry {
  std::string node;
  // Network-level (Table 1): RTT statistics to all peers, NIC throughput.
  double rtt_mean = 0.0;  // seconds
  double rtt_max = 0.0;
  double rtt_std = 0.0;
  Rate tx_rate = 0.0;  // bytes/sec over the lookback window
  Rate rx_rate = 0.0;
  // Node-level (Table 1): load average and available memory.
  double cpu_load = 0.0;
  Bytes mem_available = 0.0;
  // Rich network telemetry (the paper's §8 extension): per-interface
  // utilization, estimated queueing delay, and passive flow statistics.
  double uplink_util = 0.0;    // node -> site router, [0, 1]
  double downlink_util = 0.0;  // site router -> node, [0, 1]
  SimTime queue_delay = 0.0;   // one-way, worst direction
  double active_flows = 0.0;   // flows terminating at this node
  // Freshness metadata (fault tolerance): when this node's exporter last
  // reported, whether it ever did, and whether the scheduler's degraded
  // view judged the row stale (build_snapshot never sets `stale`). Purely
  // annotations — feature construction ignores them.
  SimTime last_seen = 0.0;
  bool has_data = false;
  bool stale = false;
};

struct ClusterSnapshot {
  SimTime at = 0.0;
  std::vector<NodeTelemetry> nodes;

  const NodeTelemetry& by_name(const std::string& node) const;
};

struct SnapshotOptions {
  /// Lookback for NIC counter rates (Prometheus rate() window).
  SimTime rate_window = 30.0;
};

/// Builds the snapshot from the TSDB as of time `now`. Nodes with no data
/// yet get zeroed entries (the model tolerates missing telemetry, as the
/// paper requires of its tree models).
ClusterSnapshot build_snapshot(const Tsdb& tsdb,
                               const std::vector<std::string>& node_names,
                               SimTime now, SnapshotOptions options = {});

}  // namespace lts::telemetry

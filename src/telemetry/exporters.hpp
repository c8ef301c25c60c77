// Exporters: the simulated equivalents of node-exporter and ping_exporter.
//
// NodeExporter scrapes one node every 2 s (kScrapeInterval) and appends:
//   node_cpu_load{node=...}                     30 s EMA of runnable demand
//   node_memory_available_bytes{node=...}       capacity - used
//   node_network_transmit_bytes_total{node=...} cumulative NIC tx counter
//   node_network_receive_bytes_total{node=...}  cumulative NIC rx counter
// and the §8 rich metrics: uplink and downlink utilization, queue delay and
// active flow count.
//
// PingExporter probes the full node mesh on the same interval:
//   ping_rtt_seconds{src=...,dst=...}           measured RTT + noise
//
// The ping exporter adds measurement noise from its own Rng stream — the
// model trains on noisy RTTs, exactly like the paper's Prometheus pipeline.
// NIC counters are exact, as they are in Linux.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "simcore/engine.hpp"
#include "telemetry/tsdb.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lts::telemetry {

inline constexpr const char* kCpuLoadMetric = "node_cpu_load";
inline constexpr const char* kMemAvailableMetric =
    "node_memory_available_bytes";
inline constexpr const char* kTxBytesMetric =
    "node_network_transmit_bytes_total";
inline constexpr const char* kRxBytesMetric =
    "node_network_receive_bytes_total";
inline constexpr const char* kPingRttMetric = "ping_rtt_seconds";
// Rich telemetry (§8 extension):
inline constexpr const char* kUplinkUtilMetric = "node_network_uplink_utilization";
inline constexpr const char* kDownlinkUtilMetric = "node_network_downlink_utilization";
inline constexpr const char* kQueueDelayMetric = "node_network_queue_delay_seconds";
inline constexpr const char* kActiveFlowsMetric = "node_network_active_flows";

/// Scrapes one node's host-level metrics every 2 s, the first scrape at
/// `phase`: each scrape record scrapes, then schedules the next.
class NodeExporter final : public sim::EventTarget {
 public:
  /// Runs on the cluster's engine.
  NodeExporter(Tsdb& tsdb, cluster::Cluster& cluster, std::size_t node_index,
               SimTime phase);
  /// Member-wise copy of `other` (its schedule, EMA and pending reports)
  /// re-pointed at copies of its TSDB and cluster, and so at the cluster's
  /// engine.
  NodeExporter(const NodeExporter& other, Tsdb& tsdb,
               cluster::Cluster& cluster);
  /// Cancels the pending scrape and any delayed report.
  ~NodeExporter();

  NodeExporter& operator=(const NodeExporter&) = delete;

  const std::string& node_name() const { return node_name_; }

  /// Fault injection: a silenced exporter keeps its scrape schedule but
  /// appends nothing, so this node's telemetry goes stale in the TSDB.
  /// A crashed node (Cluster::node_down) silences implicitly.
  void set_silenced(bool silenced) { silenced_ = silenced; }
  bool silenced() const { return silenced_; }

  /// Fault injection: samples are measured on schedule but land in the
  /// TSDB `delay` seconds later (a lagging scrape pipeline). A fetch in the
  /// gap sees telemetry up to `delay` seconds old.
  void set_report_delay(SimTime delay);
  SimTime report_delay() const { return report_delay_; }

  void on_event(const sim::Event& event) override;
  const char* target_name() const override { return "NodeExporter"; }

 private:
  /// Copies every member; the rebinding constructor re-points the
  /// collaborators.
  NodeExporter(const NodeExporter&) = default;

  static constexpr std::size_t kNumMetrics = 8;

  /// Event codes of this exporter's records; a report record carries its
  /// slot in reports_.
  enum Code : std::uint8_t { kScrape, kReport };

  /// One scrape's measurements: values[i] belongs to the i-th metric of the
  /// fixed export order (the baseline four, then the rich four).
  struct Report {
    SimTime at = 0.0;
    std::array<double, kNumMetrics> values{};
    sim::EventId event = sim::kInvalidEvent;  // pending delivery
  };

  void scrape();
  void append(const Report& report);

  Tsdb* tsdb_;
  cluster::Cluster* cluster_;
  std::size_t node_index_;
  std::string node_name_;
  // This node's series of the export order, interned once.
  std::array<SeriesId, kNumMetrics> series_ids_;
  Ema load_ema_;
  std::uint32_t target_;
  sim::EventId scrape_ = sim::kInvalidEvent;  // the pending scrape
  bool silenced_ = false;
  SimTime report_delay_ = 0.0;
  // Delayed reports in flight, addressed by their event's payload; slots
  // with event == kInvalidEvent are free.
  std::vector<Report> reports_;
  std::vector<std::uint32_t> free_reports_;
};

/// Full-mesh RTT prober (one instance covers all ordered node pairs, like a
/// ping_exporter DaemonSet whose per-node results land in one TSDB). Probes
/// on the node exporters' interval, the first probe at `phase`.
class PingExporter final : public sim::EventTarget {
 public:
  /// Runs on the cluster's engine.
  PingExporter(Tsdb& tsdb, cluster::Cluster& cluster, Rng rng, SimTime phase);
  /// Member-wise copy of `other` (its schedule and Rng state) re-pointed at
  /// copies of its TSDB and cluster, and so at the cluster's engine.
  PingExporter(const PingExporter& other, Tsdb& tsdb,
               cluster::Cluster& cluster);
  /// Cancels the pending probe.
  ~PingExporter();

  PingExporter& operator=(const PingExporter&) = delete;

  void on_event(const sim::Event& event) override;
  const char* target_name() const override { return "PingExporter"; }

 private:
  /// Copies every member; the rebinding constructor re-points the
  /// collaborators.
  PingExporter(const PingExporter&) = default;

  void probe();

  Tsdb* tsdb_;
  cluster::Cluster* cluster_;
  // rtt_series_[i * n + j]: the series of probes from node i to node j,
  // interned once (the diagonal is unused).
  std::vector<SeriesId> rtt_series_;
  Rng rng_;
  std::uint32_t target_;
  sim::EventId probe_ = sim::kInvalidEvent;  // the pending probe
};

/// Installs a NodeExporter per node plus one PingExporter, with staggered
/// phases. This is the "Prometheus stack" install step of §5.1.
class TelemetryStack {
 public:
  /// The exporters run on the cluster's engine.
  TelemetryStack(cluster::Cluster& cluster, Rng rng);
  /// Clones `other`'s TSDB and exporters onto `cluster`, a copy of other's,
  /// and so onto the cluster's engine.
  TelemetryStack(const TelemetryStack& other, cluster::Cluster& cluster);

  TelemetryStack(const TelemetryStack&) = delete;
  TelemetryStack& operator=(const TelemetryStack&) = delete;

  Tsdb& tsdb() { return tsdb_; }
  const Tsdb& tsdb() const { return tsdb_; }

  /// Per-node exporter access, indexed like Cluster nodes (for the fault
  /// injector's silence/delay primitives).
  NodeExporter& node_exporter(std::size_t i);

 private:
  Tsdb tsdb_;
  std::vector<std::unique_ptr<NodeExporter>> node_exporters_;
  std::unique_ptr<PingExporter> ping_exporter_;
};

}  // namespace lts::telemetry

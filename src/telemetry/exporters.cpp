#include "telemetry/exporters.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace lts::telemetry {

namespace {

constexpr SimTime kScrapeInterval = 2.0;
constexpr double kLoadEmaTau = 30.0;       // fast load average (30 s)
constexpr double kRttNoiseFrac = 0.01;     // multiplicative RTT noise
constexpr SimTime kRttNoiseFloor = 20e-6;  // additive jitter floor

// The export order of a NodeExporter Report's values.
constexpr std::array<const char*, 8> kNodeMetrics = {
    kCpuLoadMetric,    kMemAvailableMetric, kTxBytesMetric,
    kRxBytesMetric,    kUplinkUtilMetric,   kDownlinkUtilMetric,
    kQueueDelayMetric, kActiveFlowsMetric};

}  // namespace

NodeExporter::NodeExporter(Tsdb& tsdb, cluster::Cluster& cluster,
                           std::size_t node_index, SimTime phase)
    : tsdb_(&tsdb),
      cluster_(&cluster),
      node_index_(node_index),
      node_name_(cluster.node(node_index).name()),
      load_ema_(kLoadEmaTau),
      target_(cluster.engine().add_target(this)),
      scrape_(cluster.engine().schedule_in(
          phase, sim::target_event(target_, kScrape))) {
  static_assert(kNodeMetrics.size() == kNumMetrics);
  const Labels labels{{"node", node_name_}};
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    series_ids_[i] = tsdb_->intern(kNodeMetrics[i], labels);
  }
}

NodeExporter::NodeExporter(const NodeExporter& other, Tsdb& tsdb,
                           cluster::Cluster& cluster)
    : NodeExporter(other) {
  tsdb_ = &tsdb;
  cluster_ = &cluster;
  cluster_->engine().rebind_target(target_, this);
}

NodeExporter::~NodeExporter() {
  sim::Engine& engine = cluster_->engine();
  engine.cancel(scrape_);
  for (const Report& report : reports_) {
    if (report.event != sim::kInvalidEvent) engine.cancel(report.event);
  }
  engine.remove_target(target_);
}

void NodeExporter::set_report_delay(SimTime delay) {
  LTS_REQUIRE(delay >= 0.0, "NodeExporter: negative report delay");
  report_delay_ = delay;
}

void NodeExporter::on_event(const sim::Event& event) {
  if (event.code == kScrape) {
    scrape();
    scrape_ = cluster_->engine().schedule_in(
        kScrapeInterval, sim::target_event(target_, kScrape));
    return;
  }
  const auto slot = static_cast<std::uint32_t>(event.payload);
  append(reports_[slot]);
  reports_[slot].event = sim::kInvalidEvent;
  free_reports_.push_back(slot);
}

void NodeExporter::append(const Report& report) {
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    tsdb_->append(series_ids_[i], report.at, report.values[i]);
  }
}

void NodeExporter::scrape() {
  // A silenced exporter (fault injection) or one on a crashed node scrapes
  // nothing; the EMA freezes too, exactly as a dead process's state would.
  if (silenced_ || cluster_->node_down(node_index_)) return;

  const SimTime now = cluster_->engine().now();
  auto& node = cluster_->node(node_index_);

  // Measure everything now; where the samples land (immediately or after
  // the injected reporting delay) is decided below. Per-host NIC counters
  // and flow gauges resolve through the FlowManager's intrusive per-host
  // indexes: each scrape costs O(flows touching this host), so a full fleet
  // sweep is O(total flows), not O(hosts x flows).
  const auto& flows = cluster_->flows();
  const auto up = cluster_->node_uplink(node_index_);
  const auto down = cluster_->node_downlink(node_index_);
  load_ema_.update(now, node.cpu().total_demand());
  const Report report{
      .at = now,
      .values = {load_ema_.value(), std::max(0.0, node.memory_available()),
                 flows.host_tx_bytes(node.vertex()),
                 flows.host_rx_bytes(node.vertex()),
                 flows.link_utilization(up), flows.link_utilization(down),
                 std::max(flows.link_queue_delay(up),
                          flows.link_queue_delay(down)),
                 static_cast<double>(flows.host_active_flows(node.vertex()))}};

  if (report_delay_ <= 0.0) {
    append(report);
    return;
  }
  // Delayed reporting: the samples keep their measurement timestamp but
  // become visible only once the event fires, so a snapshot taken in the
  // gap sees stale data. When the delay shrinks mid-run (the fault
  // recovers), a fresher sample can land first; the TSDB then drops the
  // late arrivals and counts them in telemetry_out_of_order_dropped_total
  // instead of aborting ingestion.
  std::uint32_t slot;
  if (!free_reports_.empty()) {
    slot = free_reports_.back();
    free_reports_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(reports_.size());
    reports_.emplace_back();
  }
  reports_[slot] = report;
  reports_[slot].event = cluster_->engine().schedule_in(
      report_delay_, sim::target_event(target_, kReport, slot));
}

PingExporter::PingExporter(Tsdb& tsdb, cluster::Cluster& cluster, Rng rng,
                           SimTime phase)
    : tsdb_(&tsdb),
      cluster_(&cluster),
      rng_(rng),
      target_(cluster.engine().add_target(this)),
      probe_(cluster.engine().schedule_in(phase, sim::target_event(target_))) {
  const std::size_t n = cluster_->num_nodes();
  rtt_series_.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      rtt_series_[i * n + j] = tsdb_->intern(
          kPingRttMetric,
          Labels{{"src", cluster_->node(i).name()},
                 {"dst", cluster_->node(j).name()}});
    }
  }
}

PingExporter::PingExporter(const PingExporter& other, Tsdb& tsdb,
                           cluster::Cluster& cluster)
    : PingExporter(other) {
  tsdb_ = &tsdb;
  cluster_ = &cluster;
  cluster_->engine().rebind_target(target_, this);
}

PingExporter::~PingExporter() {
  cluster_->engine().cancel(probe_);
  cluster_->engine().remove_target(target_);
}

void PingExporter::on_event(const sim::Event& /*event*/) {
  probe();
  probe_ = cluster_->engine().schedule_in(kScrapeInterval,
                                          sim::target_event(target_));
}

void PingExporter::probe() {
  const SimTime now = cluster_->engine().now();
  const std::size_t n = cluster_->num_nodes();
  for (std::size_t i = 0; i < n; ++i) {
    if (cluster_->node_down(i)) continue;  // dead host answers no echo
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || cluster_->node_down(j)) continue;
      const SimTime true_rtt = cluster_->flows().current_rtt(
          cluster_->node(i).vertex(), cluster_->node(j).vertex());
      // ICMP echo measurements see scheduler jitter and serialization
      // variance: multiplicative noise plus an additive floor.
      const SimTime measured =
          true_rtt * (1.0 + kRttNoiseFrac * std::abs(rng_.normal())) +
          kRttNoiseFloor * rng_.uniform();
      tsdb_->append(rtt_series_[i * n + j], now, measured);
    }
  }
}

TelemetryStack::TelemetryStack(const TelemetryStack& other,
                               cluster::Cluster& cluster)
    : tsdb_(other.tsdb_),
      ping_exporter_(std::make_unique<PingExporter>(*other.ping_exporter_,
                                                    tsdb_, cluster)) {
  node_exporters_.reserve(other.node_exporters_.size());
  for (const auto& exporter : other.node_exporters_) {
    node_exporters_.push_back(
        std::make_unique<NodeExporter>(*exporter, tsdb_, cluster));
  }
}

TelemetryStack::TelemetryStack(cluster::Cluster& cluster, Rng rng) {
  const std::size_t n = cluster.num_nodes();
  for (std::size_t i = 0; i < n; ++i) {
    // Stagger scrapes across the interval so samples interleave.
    const SimTime phase =
        kScrapeInterval * static_cast<double>(i) / static_cast<double>(n + 1);
    node_exporters_.push_back(
        std::make_unique<NodeExporter>(tsdb_, cluster, i, phase));
    // Node exporters draw nothing, but each still takes its split of the
    // stack's stream so the ping exporter's stream stays the same.
    rng.split();
  }
  ping_exporter_ = std::make_unique<PingExporter>(
      tsdb_, cluster, rng.split(),
      kScrapeInterval * static_cast<double>(n) / static_cast<double>(n + 1));
}

NodeExporter& TelemetryStack::node_exporter(std::size_t i) {
  LTS_REQUIRE(i < node_exporters_.size(),
              "TelemetryStack: node exporter index out of range");
  return *node_exporters_[i];
}

}  // namespace lts::telemetry

// Fault injection: deterministic, Engine-driven perturbations of the
// simulated cluster.
//
// The paper evaluates LTS on a healthy testbed; this subsystem asks the next
// question — what happens to a telemetry-driven scheduler when the telemetry
// pipeline or the substrate itself degrades? A FaultInjector can
//   - crash and recover nodes (the host hangs: its exporters stop answering,
//     its access links drop to a dead-link trickle, in-flight transfers
//     stall rather than vanish),
//   - degrade or partition WAN links (capacity cuts, RTT spikes, loss of a
//     whole site),
//   - silence or delay node exporters (snapshots arrive stale or with
//     missing per-node rows even though the node itself is fine).
//
// Everything is driven through the shared sim::Engine, so a fault schedule
// is replayed bit-identically for every scheduler under comparison — the
// same property the counterfactual evaluation relies on. An injector with
// no faults applied touches nothing and draws no randomness; constructing
// one is free.
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "k8s/api.hpp"
#include "net/topology.hpp"
#include "simcore/engine.hpp"
#include "telemetry/exporters.hpp"
#include "util/json.hpp"

namespace lts::fault {

enum class FaultKind {
  kNodeCrash,        // target = node name; host hangs, recovers on expiry
  kLinkDegrade,      // target = "siteA:siteB"; severity = capacity fraction cut
  kRttSpike,         // target = "siteA:siteB"; severity = extra one-way secs
  kSitePartition,    // target = site name; every WAN link touching it dies
  kExporterSilence,  // target = node name; exporter scrapes vanish
  kExporterDelay,    // target = node name; severity = reporting lag seconds
  kRetrainFail,      // target ignored; online refits fail while active
  kNodeLinkDegrade,  // target = node name; severity = access-capacity cut
};

const char* to_string(FaultKind kind);
FaultKind fault_kind_from_string(const std::string& s);

/// One scheduled fault. `duration <= 0` means permanent (never recovers).
/// `severity` is kind-specific: fraction of capacity removed (kLinkDegrade,
/// in [0, 1]), extra one-way propagation delay in seconds (kRttSpike), or
/// exporter reporting lag in seconds (kExporterDelay); ignored otherwise.
struct FaultSpec {
  FaultKind kind = FaultKind::kNodeCrash;
  std::string target;
  SimTime at = 0.0;
  SimTime duration = 0.0;
  double severity = 1.0;
};

/// One spec object with keys kind and target, and optionally at, duration
/// and severity; any other key is an error.
FaultSpec fault_from_json(const Json& j);
/// A JSON array of specs. Every error names the spec's index ("fault 0:").
std::vector<FaultSpec> faults_from_json(const Json& j);

/// Applies FaultSpecs to a live cluster, or injects/recovers directly.
///
/// The telemetry stack and API server are optional: without them, exporter
/// faults throw and node crashes skip the readiness bookkeeping (pings and
/// scrapes still stop, because the exporters consult Cluster::node_down).
class FaultInjector final : public sim::EventTarget {
 public:
  /// Schedules its faults on the cluster's engine.
  FaultInjector(cluster::Cluster& cluster,
                telemetry::TelemetryStack* telemetry = nullptr,
                k8s::ApiServer* api = nullptr);
  /// Member-wise copy of `other` (its schedule and fault state) re-pointed
  /// at copies of its cluster, telemetry stack and API server, and so at
  /// the cluster's engine.
  FaultInjector(const FaultInjector& other, cluster::Cluster& cluster,
                telemetry::TelemetryStack* telemetry, k8s::ApiServer* api);
  ~FaultInjector();

  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules injection at `spec.at` and, if `spec.duration > 0`, recovery
  /// at `spec.at + spec.duration`, on the shared engine.
  void apply(const FaultSpec& spec);
  void apply_all(const std::vector<FaultSpec>& specs);

  // Direct primitives (take effect immediately). All are idempotent: a
  // second inject of the same fault is a no-op, as is recovering a fault
  // that is not active.
  void crash_node(const std::string& node);
  void recover_node(const std::string& node);
  void degrade_wan_link(const std::string& site_a, const std::string& site_b,
                        double capacity_cut_frac);
  /// Cuts a node's access-link capacity (both directions) by the given
  /// fraction — intra-site congestion/drift on topologies with no WAN
  /// links to degrade. Unlike crash_node the node stays up: exporters keep
  /// answering, only its NIC throughput shrinks.
  void degrade_node_link(const std::string& node, double capacity_cut_frac);
  void restore_node_link(const std::string& node);
  void spike_wan_rtt(const std::string& site_a, const std::string& site_b,
                     SimTime extra_one_way_delay);
  void restore_wan_link(const std::string& site_a, const std::string& site_b);
  void partition_site(const std::string& site);
  void heal_site(const std::string& site);
  void silence_exporter(const std::string& node);
  void unsilence_exporter(const std::string& node);
  void delay_exporter(const std::string& node, SimTime report_delay);
  void undelay_exporter(const std::string& node);
  void fail_retrains();
  void restore_retrains();

  /// True while a kRetrainFail fault is active. The OnlineTrainer's
  /// failure hook polls this: refits attempted in the window fail and the
  /// previous model keeps serving (the degradation the fault models is a
  /// broken training pipeline, not a broken scheduler).
  bool retrain_fail_active() const { return retrain_fail_active_; }

  /// Count of fault activations / recoveries that have fired so far.
  int injected() const { return injected_; }
  int recovered() const { return recovered_; }

  void on_event(const sim::Event& event) override;
  const char* target_name() const override { return "FaultInjector"; }

 private:
  /// Copies every member; the rebinding constructor re-points the
  /// collaborators.
  FaultInjector(const FaultInjector&) = default;

  /// Event codes of this injector's records; both carry a spec index.
  enum Code : std::uint8_t { kInject, kRecover };

  void inject(const FaultSpec& spec);
  void recover(const FaultSpec& spec);
  /// Forward link id of the WAN edge between two sites (either order).
  net::LinkId wan_forward_link(const std::string& site_a,
                               const std::string& site_b) const;
  telemetry::NodeExporter& exporter_for(const std::string& node);
  /// Saves a link's pristine capacity/delay on first touch, then mutates.
  void cut_link_capacity(net::LinkId l, double keep_frac);
  void add_link_delay(net::LinkId l, SimTime extra);
  void restore_link(net::LinkId l);

  cluster::Cluster* cluster_;
  telemetry::TelemetryStack* telemetry_;
  k8s::ApiServer* api_;

  /// A faulted link's pristine attributes, indexed by link id; `saved` is
  /// false for links no fault touches.
  struct SavedLink {
    bool saved = false;
    Rate capacity = 0.0;
    SimTime prop_delay = 0.0;
  };
  /// Records link `l`'s pristine attributes on its first fault.
  SavedLink& save_link(net::LinkId l);

  std::vector<SavedLink> saved_links_;
  // Applied specs, addressed by their events' payload, with the ids of
  // their pending injection and recovery events.
  std::vector<FaultSpec> specs_;
  std::vector<sim::EventId> pending_;
  std::uint32_t target_;
  bool retrain_fail_active_ = false;
  int injected_ = 0;
  int recovered_ = 0;
};

}  // namespace lts::fault

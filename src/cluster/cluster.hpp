// Cluster facade: builds the multi-site topology and owns the nodes.
//
// Reproduces the paper's §5.1 setup shape: sites each hold some nodes; every
// node attaches to its site router through an access link; site routers are
// fully (or partially) meshed by WAN links whose propagation delays realize
// the inter-site RTTs of Figure 4. All traffic rides the simulated data
// plane (the FABNetv4 stand-in); there is no separate management network.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "net/flow.hpp"
#include "net/topology.hpp"
#include "simcore/engine.hpp"
#include "util/common.hpp"

namespace lts::cluster {

struct SiteSpec {
  std::string name;
  std::vector<std::string> node_names;
};

struct WanLinkSpec {
  std::string site_a;
  std::string site_b;
  SimTime rtt;          // round-trip propagation between the two routers
  Rate capacity_bps;    // per direction
};

struct ClusterSpec {
  std::vector<SiteSpec> sites;
  std::vector<WanLinkSpec> wan_links;
  double node_cores = 6.0;
  Bytes node_memory = 8.0 * 1024 * 1024 * 1024;  // 8 GB, per §5.1
  /// Effective per-VM NIC rate. The paper's slices have 100 Gbps physical
  /// NICs, but the achievable per-tenant rate on a shared testbed is far
  /// lower; a ~2 Gbps effective access link makes a node's *own* traffic
  /// (background pods, its executors' shuffles) the first bottleneck its
  /// driver-bound flows meet — the node-local congestion the paper's tx/rx
  /// features detect.
  Rate access_capacity_bps = 200e6;              // node <-> site router
  SimTime access_delay = 50e-6;                  // one-way
  /// Optional per-node extra access delay (indexed in global node order,
  /// i.e. sites in declaration order, nodes within site in order). Models
  /// per-VM virtualization/path differences on a shared testbed; the ping
  /// mesh observes it, which lets a scheduler tell two same-site nodes
  /// apart.
  std::vector<SimTime> node_access_extra_delay;
  net::FlowOptions flow_options;

  /// Nodes the spec declares, over all sites: the size of every
  /// global-node-order vector above and of the Cluster built from it.
  std::size_t num_nodes() const;
};

/// Returns the cluster spec used throughout the paper's evaluation:
/// 3 sites (UCSD, FIU, SRI) x 2 nodes, 6 cores / 8 GB each, WAN RTTs in the
/// tens of milliseconds with UCSD<->SRI the short edge.
ClusterSpec paper_cluster_spec();

class Cluster {
 public:
  Cluster(sim::Engine& engine, const ClusterSpec& spec);
  /// Copies `other` (topology, flows, nodes, liveness) onto `engine`, a
  /// copy of other's engine.
  Cluster(const Cluster& other, sim::Engine& engine);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Engine& engine() { return engine_; }
  net::Topology& topology() { return topo_; }
  const net::Topology& topology() const { return topo_; }
  net::FlowManager& flows() { return *flows_; }
  const net::FlowManager& flows() const { return *flows_; }

  std::size_t num_nodes() const { return nodes_.size(); }
  Node& node(std::size_t i);
  const Node& node(std::size_t i) const;

  /// Index of the node with this name; throws if absent.
  std::size_t node_index(const std::string& name) const;

  std::vector<std::string> node_names() const;
  const std::vector<std::string>& site_names() const { return site_names_; }

  /// RTT between two site routers as currently measured (propagation +
  /// queueing); used by the Figure 4 reproduction.
  SimTime site_rtt(const std::string& site_a, const std::string& site_b) const;

  /// Directed access links of a node: uplink = node -> site router (carries
  /// the node's transmit traffic), downlink = router -> node (receive).
  /// Exposed for the rich-telemetry exporters (§8: link-level utilization
  /// and queueing delay).
  net::LinkId node_uplink(std::size_t node) const;
  net::LinkId node_downlink(std::size_t node) const;

  /// A WAN edge as built from the spec, with the forward link id (the
  /// reverse direction is forward + 1). Exposed for the fault injector,
  /// which degrades/partitions WAN links by site pair.
  struct WanLink {
    std::string site_a;
    std::string site_b;
    net::LinkId forward = -1;
  };
  const std::vector<WanLink>& wan_links() const { return wan_links_; }

  /// Liveness flag maintained by the fault injector. A down node stops
  /// answering pings and exporting telemetry (the exporters check this);
  /// its CPU/memory state is left untouched — work stalls rather than
  /// vanishes, like a hung host. All nodes start up.
  void set_node_down(std::size_t node, bool down);
  bool node_down(std::size_t node) const;

 private:
  sim::Engine& engine_;
  net::Topology topo_;
  std::unique_ptr<net::FlowManager> flows_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<net::LinkId> node_uplinks_;
  std::vector<std::string> site_names_;
  std::vector<net::VertexId> site_routers_;
  std::vector<WanLink> wan_links_;
  std::vector<char> node_down_;
};

}  // namespace lts::cluster

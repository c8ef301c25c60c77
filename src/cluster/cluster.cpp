#include "cluster/cluster.hpp"

namespace lts::cluster {

std::size_t ClusterSpec::num_nodes() const {
  std::size_t total = 0;
  for (const auto& site : sites) total += site.node_names.size();
  return total;
}

ClusterSpec paper_cluster_spec() {
  ClusterSpec spec;
  spec.sites = {
      {"ucsd", {"node-1", "node-2"}},
      {"fiu", {"node-3", "node-4"}},
      {"sri", {"node-5", "node-6"}},
  };
  // Figure 4 shows RTTs along the inter-site edges. The paper figure's
  // numeric values are not in the text; these are real-world coast-to-coast
  // values for the three institutions: San Diego <-> Menlo Park is short,
  // anything to Miami crosses the continent.
  spec.wan_links = {
      {"ucsd", "sri", 0.012, 600e6},
      {"ucsd", "fiu", 0.068, 600e6},
      {"sri", "fiu", 0.078, 600e6},
  };
  // An 8 MB effective window keeps cross-country flows mildly RTT-bound
  // (~115 MB/s at 70 ms) without making every transfer latency-dominated:
  // bandwidth-heavy apps respond mostly to congestion, latency-heavy apps
  // (iterative barriers) mostly to RTT.
  spec.flow_options.tcp_window_bytes = 4.0 * 1024 * 1024;
  return spec;
}

Cluster::Cluster(sim::Engine& engine, const ClusterSpec& spec)
    : engine_(engine) {
  LTS_REQUIRE(!spec.sites.empty(), "Cluster: no sites");
  for (const auto& site : spec.sites) {
    const net::VertexId router = topo_.add_router("router-" + site.name);
    site_names_.push_back(site.name);
    site_routers_.push_back(router);
    for (const auto& node_name : site.node_names) {
      const net::VertexId host = topo_.add_host(node_name);
      SimTime access_delay = spec.access_delay;
      if (!spec.node_access_extra_delay.empty()) {
        LTS_REQUIRE(nodes_.size() < spec.node_access_extra_delay.size(),
                    "Cluster: node_access_extra_delay too short");
        access_delay += spec.node_access_extra_delay[nodes_.size()];
      }
      const net::LinkId uplink = topo_.add_duplex_link(
          host, router, spec.access_capacity_bps, access_delay);
      node_uplinks_.push_back(uplink);
      nodes_.push_back(std::make_unique<Node>(engine_, node_name, site.name,
                                              host, spec.node_cores,
                                              spec.node_memory));
    }
  }
  for (const auto& wan : spec.wan_links) {
    const auto find_router = [&](const std::string& name) {
      for (std::size_t i = 0; i < site_names_.size(); ++i) {
        if (site_names_[i] == name) return site_routers_[i];
      }
      throw Error("Cluster: unknown site in WAN link: " + name);
    };
    // One-way propagation is half the configured RTT; access links add their
    // (tiny) share on top.
    const net::LinkId forward = topo_.add_duplex_link(
        find_router(wan.site_a), find_router(wan.site_b), wan.capacity_bps,
        wan.rtt / 2.0);
    wan_links_.push_back(WanLink{wan.site_a, wan.site_b, forward});
  }
  node_down_.assign(nodes_.size(), 0);
  flows_ = std::make_unique<net::FlowManager>(engine_, topo_,
                                              spec.flow_options);
}

void Cluster::set_node_down(std::size_t node, bool down) {
  LTS_REQUIRE(node < node_down_.size(), "Cluster: node index");
  node_down_[node] = down ? 1 : 0;
}

bool Cluster::node_down(std::size_t node) const {
  LTS_REQUIRE(node < node_down_.size(), "Cluster: node index");
  return node_down_[node] != 0;
}

Node& Cluster::node(std::size_t i) {
  LTS_REQUIRE(i < nodes_.size(), "Cluster: node index out of range");
  return *nodes_[i];
}

const Node& Cluster::node(std::size_t i) const {
  LTS_REQUIRE(i < nodes_.size(), "Cluster: node index out of range");
  return *nodes_[i];
}

Node& Cluster::node_by_name(const std::string& name) {
  return node(node_index(name));
}

std::size_t Cluster::node_index(const std::string& name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->name() == name) return i;
  }
  throw Error("Cluster: no node named " + name);
}

std::vector<std::string> Cluster::node_names() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& n : nodes_) names.push_back(n->name());
  return names;
}

net::LinkId Cluster::node_uplink(std::size_t node) const {
  LTS_REQUIRE(node < node_uplinks_.size(), "Cluster: node index");
  return node_uplinks_[node];
}

net::LinkId Cluster::node_downlink(std::size_t node) const {
  // add_duplex_link creates the reverse direction as id + 1.
  return node_uplink(node) + 1;
}

SimTime Cluster::site_rtt(const std::string& site_a,
                          const std::string& site_b) const {
  const net::VertexId a = topo_.find_vertex("router-" + site_a);
  const net::VertexId b = topo_.find_vertex("router-" + site_b);
  LTS_REQUIRE(a != net::kNoVertex && b != net::kNoVertex,
              "Cluster: unknown site");
  if (a == b) return 0.0;
  return flows_->current_rtt(a, b);
}

}  // namespace lts::cluster

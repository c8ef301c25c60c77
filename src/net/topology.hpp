// Network topology: hosts and routers connected by directed links, with
// latency-weighted shortest-path routing.
//
// Models the FABRIC substrate of the paper: each node has an access link to
// its site router, and site routers are connected by WAN links whose
// propagation delays reproduce the inter-site RTTs of Figure 4. Links are
// directed so that transmit and receive directions have independent capacity
// and utilization — exactly why the paper's tx/rx-rate features carry signal.
#pragma once

#include <string>
#include <vector>

#include "util/common.hpp"

namespace lts::net {

using VertexId = int;
using LinkId = int;
inline constexpr VertexId kNoVertex = -1;

/// A directed link. Physical cables are modeled as two Links, one per
/// direction, each with its own capacity.
struct Link {
  LinkId id = -1;
  VertexId from = kNoVertex;
  VertexId to = kNoVertex;
  Rate capacity = 0.0;       // bytes/sec
  SimTime prop_delay = 0.0;  // one-way propagation, seconds
};

struct Vertex {
  VertexId id = kNoVertex;
  std::string name;
  bool is_host = false;  // hosts source/sink traffic; routers only forward
  std::vector<LinkId> out_links;
};

class Topology {
 public:
  /// Adds a vertex; names must be unique.
  VertexId add_host(const std::string& name);
  VertexId add_router(const std::string& name);

  /// Adds a pair of directed links (u->v and v->u) with the same capacity
  /// and propagation delay. Returns the id of the u->v direction; the v->u
  /// direction is the returned id + 1.
  LinkId add_duplex_link(VertexId u, VertexId v, Rate capacity_bps,
                         SimTime prop_delay);

  /// Adds a single directed link.
  LinkId add_link(VertexId u, VertexId v, Rate capacity_bps,
                  SimTime prop_delay);

  /// Mutates a link's capacity (fault injection: degraded or partitioned
  /// links). Deliberately does NOT invalidate routes: real WAN routing is
  /// static on the timescale of a job, so traffic keeps crossing the
  /// degraded link instead of rerouting around it. Callers holding a
  /// FlowManager must call its invalidate_rates() afterwards.
  void set_link_capacity(LinkId l, Rate capacity_bps);

  /// Mutates a link's one-way propagation delay (fault injection: RTT
  /// spikes). Routes stay fixed, like set_link_capacity.
  void set_link_prop_delay(LinkId l, SimTime prop_delay);

  std::size_t num_vertices() const { return vertices_.size(); }
  std::size_t num_links() const { return links_.size(); }

  const Vertex& vertex(VertexId v) const;
  const Link& link(LinkId l) const;
  VertexId find_vertex(const std::string& name) const;  // kNoVertex if absent

  /// Directed link ids along the latency-shortest path src -> dst. Throws if
  /// unreachable. Routes are computed once and cached; call
  /// invalidate_routes() after mutating the topology (experiments never do
  /// mid-run).
  const std::vector<LinkId>& route(VertexId src, VertexId dst) const;

  /// One-way propagation delay along route(src, dst).
  SimTime path_prop_delay(VertexId src, VertexId dst) const;

  void invalidate_routes();

  std::vector<VertexId> hosts() const;

 private:
  VertexId add_vertex(const std::string& name, bool is_host);
  void compute_routes_from(VertexId src) const;

  std::vector<Vertex> vertices_;
  std::vector<Link> links_;
  // routes_[src][dst] = link ids; lazily filled per source via Dijkstra.
  mutable std::vector<std::vector<std::vector<LinkId>>> routes_;
  mutable std::vector<bool> routes_ready_;
};

}  // namespace lts::net

#include "net/topology.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace lts::net {

VertexId Topology::add_host(const std::string& name) {
  return add_vertex(name, true);
}

VertexId Topology::add_router(const std::string& name) {
  return add_vertex(name, false);
}

VertexId Topology::add_vertex(const std::string& name, bool is_host) {
  LTS_REQUIRE(find_vertex(name) == kNoVertex,
              "Topology: duplicate vertex name: " + name);
  Vertex v;
  v.id = static_cast<VertexId>(vertices_.size());
  v.name = name;
  v.is_host = is_host;
  vertices_.push_back(std::move(v));
  invalidate_routes();
  return vertices_.back().id;
}

LinkId Topology::add_link(VertexId u, VertexId v, Rate capacity_bps,
                          SimTime prop_delay) {
  LTS_REQUIRE(u >= 0 && static_cast<std::size_t>(u) < vertices_.size(),
              "Topology: bad source vertex");
  LTS_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < vertices_.size(),
              "Topology: bad target vertex");
  LTS_REQUIRE(capacity_bps > 0.0, "Topology: non-positive capacity");
  LTS_REQUIRE(prop_delay >= 0.0, "Topology: negative delay");
  Link l;
  l.id = static_cast<LinkId>(links_.size());
  l.from = u;
  l.to = v;
  l.capacity = capacity_bps;
  l.prop_delay = prop_delay;
  links_.push_back(l);
  vertices_[static_cast<std::size_t>(u)].out_links.push_back(l.id);
  invalidate_routes();
  return l.id;
}

LinkId Topology::add_duplex_link(VertexId u, VertexId v, Rate capacity_bps,
                                 SimTime prop_delay) {
  const LinkId forward = add_link(u, v, capacity_bps, prop_delay);
  add_link(v, u, capacity_bps, prop_delay);
  return forward;
}

void Topology::set_link_capacity(LinkId l, Rate capacity_bps) {
  LTS_REQUIRE(l >= 0 && static_cast<std::size_t>(l) < links_.size(),
              "Topology: bad link id");
  LTS_REQUIRE(capacity_bps > 0.0, "Topology: non-positive capacity");
  links_[static_cast<std::size_t>(l)].capacity = capacity_bps;
}

void Topology::set_link_prop_delay(LinkId l, SimTime prop_delay) {
  LTS_REQUIRE(l >= 0 && static_cast<std::size_t>(l) < links_.size(),
              "Topology: bad link id");
  LTS_REQUIRE(prop_delay >= 0.0, "Topology: negative delay");
  links_[static_cast<std::size_t>(l)].prop_delay = prop_delay;
}

const Vertex& Topology::vertex(VertexId v) const {
  LTS_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < vertices_.size(),
              "Topology: bad vertex id");
  return vertices_[static_cast<std::size_t>(v)];
}

const Link& Topology::link(LinkId l) const {
  LTS_REQUIRE(l >= 0 && static_cast<std::size_t>(l) < links_.size(),
              "Topology: bad link id");
  return links_[static_cast<std::size_t>(l)];
}

VertexId Topology::find_vertex(const std::string& name) const {
  for (const auto& v : vertices_) {
    if (v.name == name) return v.id;
  }
  return kNoVertex;
}

void Topology::invalidate_routes() {
  routes_.assign(vertices_.size(), {});
  routes_ready_.assign(vertices_.size(), false);
}

void Topology::compute_routes_from(VertexId src) const {
  const std::size_t n = vertices_.size();
  std::vector<SimTime> dist(n, std::numeric_limits<SimTime>::infinity());
  std::vector<LinkId> via(n, -1);  // link used to reach each vertex
  using Entry = std::pair<SimTime, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  dist[static_cast<std::size_t>(src)] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (const LinkId lid : vertices_[static_cast<std::size_t>(u)].out_links) {
      const Link& l = links_[static_cast<std::size_t>(lid)];
      const SimTime nd = d + l.prop_delay;
      if (nd < dist[static_cast<std::size_t>(l.to)]) {
        dist[static_cast<std::size_t>(l.to)] = nd;
        via[static_cast<std::size_t>(l.to)] = lid;
        pq.emplace(nd, l.to);
      }
    }
  }
  auto& table = routes_[static_cast<std::size_t>(src)];
  table.assign(n, {});
  for (std::size_t dst = 0; dst < n; ++dst) {
    if (static_cast<VertexId>(dst) == src) continue;
    if (via[dst] < 0) continue;  // unreachable; route() reports it
    std::vector<LinkId> path;
    VertexId cur = static_cast<VertexId>(dst);
    while (cur != src) {
      const LinkId lid = via[static_cast<std::size_t>(cur)];
      path.push_back(lid);
      cur = links_[static_cast<std::size_t>(lid)].from;
    }
    std::reverse(path.begin(), path.end());
    table[dst] = std::move(path);
  }
  routes_ready_[static_cast<std::size_t>(src)] = true;
}

const std::vector<LinkId>& Topology::route(VertexId src, VertexId dst) const {
  LTS_REQUIRE(src >= 0 && static_cast<std::size_t>(src) < vertices_.size(),
              "Topology: bad route source");
  LTS_REQUIRE(dst >= 0 && static_cast<std::size_t>(dst) < vertices_.size(),
              "Topology: bad route target");
  LTS_REQUIRE(src != dst, "Topology: route to self");
  if (!routes_ready_[static_cast<std::size_t>(src)]) {
    compute_routes_from(src);
  }
  const auto& path = routes_[static_cast<std::size_t>(src)][
      static_cast<std::size_t>(dst)];
  LTS_REQUIRE(!path.empty(), "Topology: no route " + vertex(src).name +
                                 " -> " + vertex(dst).name);
  return path;
}

SimTime Topology::path_prop_delay(VertexId src, VertexId dst) const {
  SimTime total = 0.0;
  for (const LinkId lid : route(src, dst)) {
    total += link(lid).prop_delay;
  }
  return total;
}

std::vector<VertexId> Topology::hosts() const {
  std::vector<VertexId> out;
  for (const auto& v : vertices_) {
    if (v.is_host) out.push_back(v.id);
  }
  return out;
}

}  // namespace lts::net

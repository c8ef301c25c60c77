#include "k8s/api.hpp"

#include <algorithm>

namespace lts::k8s {

void ApiServer::register_node(const std::string& name, Resources allocatable,
                              std::map<std::string, std::string> labels,
                              std::vector<Taint> taints) {
  for (const auto& n : nodes_) {
    LTS_REQUIRE(n.name != name, "ApiServer: duplicate node: " + name);
  }
  NodeEntry entry;
  entry.name = name;
  entry.allocatable = allocatable;
  entry.labels = std::move(labels);
  entry.taints = std::move(taints);
  nodes_.push_back(std::move(entry));
}

void ApiServer::bind(const PodSpec& pod, const std::string& node_name) {
  LTS_REQUIRE(pod_bindings_.count(pod.name) == 0,
              "ApiServer: pod already bound: " + pod.name);
  NodeEntry& node = node_mutable(node_name);
  node.requested = node.requested + pod.requests;
  node.pods.push_back(pod.name);
  pod_bindings_[pod.name] = Binding{node_name, pod.requests};
}

void ApiServer::remove_pod(const std::string& pod_name) {
  const auto it = pod_bindings_.find(pod_name);
  if (it == pod_bindings_.end()) return;
  NodeEntry& node = node_mutable(it->second.node);
  node.requested = node.requested - it->second.requests;
  node.pods.erase(std::remove(node.pods.begin(), node.pods.end(), pod_name),
                  node.pods.end());
  pod_bindings_.erase(it);
}

bool ApiServer::has_pod(const std::string& pod_name) const {
  return pod_bindings_.count(pod_name) > 0;
}

const std::string& ApiServer::pod_node(const std::string& pod_name) const {
  const auto it = pod_bindings_.find(pod_name);
  LTS_REQUIRE(it != pod_bindings_.end(),
              "ApiServer: unknown pod: " + pod_name);
  return it->second.node;
}

void ApiServer::set_node_ready(const std::string& name, bool ready) {
  node_mutable(name).ready = ready;
}

const NodeEntry& ApiServer::node(const std::string& name) const {
  for (const auto& n : nodes_) {
    if (n.name == name) return n;
  }
  throw Error("ApiServer: unknown node: " + name);
}

NodeEntry& ApiServer::node_mutable(const std::string& name) {
  for (auto& n : nodes_) {
    if (n.name == name) return n;
  }
  throw Error("ApiServer: unknown node: " + name);
}

}  // namespace lts::k8s

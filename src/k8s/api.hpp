// Minimal API-server: the cluster-state bookkeeping the scheduler reads
// (node allocatable, sum of bound pods' requests) and the bind operation.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "k8s/resources.hpp"
#include "util/common.hpp"

namespace lts::k8s {

struct NodeEntry {
  std::string name;
  Resources allocatable;
  std::map<std::string, std::string> labels;
  std::vector<Taint> taints;
  Resources requested;             // sum of bound pods' requests
  std::vector<std::string> pods;   // bound pod names
  bool ready = true;               // false once the node controller marks it down
};

class ApiServer {
 public:
  void register_node(const std::string& name, Resources allocatable,
                     std::map<std::string, std::string> labels = {},
                     std::vector<Taint> taints = {});

  /// Binds a pod to a node, accounting its requests. Pod names are unique.
  void bind(const PodSpec& pod, const std::string& node_name);

  /// Deletes a pod, releasing its requested resources. No-op if unknown.
  void remove_pod(const std::string& pod_name);

  bool has_pod(const std::string& pod_name) const;
  const std::string& pod_node(const std::string& pod_name) const;

  /// Node-controller readiness: an unready node keeps its bindings but the
  /// scheduler will not place new pods on it.
  void set_node_ready(const std::string& name, bool ready);

  const std::vector<NodeEntry>& nodes() const { return nodes_; }
  const NodeEntry& node(const std::string& name) const;
  std::size_t num_pods() const { return pod_bindings_.size(); }

 private:
  NodeEntry& node_mutable(const std::string& name);

  std::vector<NodeEntry> nodes_;
  struct Binding {
    std::string node;
    Resources requests;
  };
  std::map<std::string, Binding> pod_bindings_;
};

}  // namespace lts::k8s

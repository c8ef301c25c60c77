// Resource quantities and pod/node specification types.
//
// Mirrors the part of the Kubernetes object model the default scheduler
// consumes: resource *requests* (not live usage — the blindness the paper
// exploits), labels, taints/tolerations and node affinity.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace lts::k8s {

/// CPU in cores, memory in bytes — the two resources the default scheduler's
/// fit/score plugins consider.
struct Resources {
  double cpu = 0.0;
  Bytes memory = 0.0;

  Resources operator+(const Resources& o) const {
    return {cpu + o.cpu, memory + o.memory};
  }
  Resources operator-(const Resources& o) const {
    return {cpu - o.cpu, memory - o.memory};
  }
  bool fits_within(const Resources& capacity) const {
    return cpu <= capacity.cpu && memory <= capacity.memory;
  }
};

enum class TaintEffect { kNoSchedule, kPreferNoSchedule };

struct Taint {
  std::string key;
  std::string value;
  TaintEffect effect = TaintEffect::kNoSchedule;
};

/// Simplified toleration: tolerates a taint when the key matches (empty key
/// tolerates everything, like operator: Exists).
struct Toleration {
  std::string key;
  std::string value;

  bool tolerates(const Taint& taint) const {
    if (key.empty()) return true;
    if (key != taint.key) return false;
    return value.empty() || value == taint.value;
  }
};

/// requiredDuringSchedulingIgnoredDuringExecution node affinity reduced to
/// the form the paper's Job Builder emits: a `kubernetes.io/hostname In
/// [...]` match expression.
struct NodeAffinity {
  std::vector<std::string> required_node_names;

  bool matches(const std::string& node_name) const {
    for (const auto& n : required_node_names) {
      if (n == node_name) return true;
    }
    return false;
  }
};

struct PodSpec {
  std::string name;
  Resources requests;
  std::map<std::string, std::string> labels;
  std::optional<NodeAffinity> node_affinity;
  std::vector<Toleration> tolerations;
};

/// Parses quantities like "500m" (cores) and "2Gi"/"512Mi" (bytes),
/// the formats rendered into manifests by the Job Builder.
double parse_cpu_quantity(const std::string& s);
Bytes parse_memory_quantity(const std::string& s);

std::string format_cpu_quantity(double cores);
std::string format_memory_quantity(Bytes bytes);

}  // namespace lts::k8s

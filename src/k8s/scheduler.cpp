#include "k8s/scheduler.hpp"

#include <algorithm>
#include <cmath>

namespace lts::k8s {

std::string node_resources_fit(const PodSpec& pod, const NodeEntry& node) {
  const Resources free = node.allocatable - node.requested;
  if (pod.requests.cpu > free.cpu) return "insufficient cpu";
  if (pod.requests.memory > free.memory) return "insufficient memory";
  return "";
}

std::string node_affinity(const PodSpec& pod, const NodeEntry& node) {
  if (!pod.node_affinity.has_value()) return "";
  if (pod.node_affinity->matches(node.name)) return "";
  return "node affinity mismatch";
}

std::string taint_toleration(const PodSpec& pod, const NodeEntry& node) {
  for (const auto& taint : node.taints) {
    if (taint.effect != TaintEffect::kNoSchedule) continue;
    bool tolerated = false;
    for (const auto& tol : pod.tolerations) {
      if (tol.tolerates(taint)) {
        tolerated = true;
        break;
      }
    }
    if (!tolerated) return "untolerated taint " + taint.key;
  }
  return "";
}

double least_allocated_score(const PodSpec& pod, const NodeEntry& node) {
  const Resources after = node.requested + pod.requests;
  const double cpu_free =
      node.allocatable.cpu > 0.0
          ? std::max(0.0, node.allocatable.cpu - after.cpu) /
                node.allocatable.cpu
          : 0.0;
  const double mem_free =
      node.allocatable.memory > 0.0
          ? std::max(0.0, node.allocatable.memory - after.memory) /
                node.allocatable.memory
          : 0.0;
  return 100.0 * (cpu_free + mem_free) / 2.0;
}

double balanced_allocation_score(const PodSpec& pod, const NodeEntry& node) {
  const Resources after = node.requested + pod.requests;
  const double cpu_frac =
      node.allocatable.cpu > 0.0
          ? std::min(1.0, after.cpu / node.allocatable.cpu)
          : 1.0;
  const double mem_frac =
      node.allocatable.memory > 0.0
          ? std::min(1.0, after.memory / node.allocatable.memory)
          : 1.0;
  return 100.0 - std::abs(cpu_frac - mem_frac) * 100.0;
}

double taint_toleration_score(const PodSpec& pod, const NodeEntry& node) {
  int untolerated = 0;
  for (const auto& taint : node.taints) {
    if (taint.effect != TaintEffect::kPreferNoSchedule) continue;
    bool tolerated = false;
    for (const auto& tol : pod.tolerations) {
      if (tol.tolerates(taint)) {
        tolerated = true;
        break;
      }
    }
    if (!tolerated) ++untolerated;
  }
  return untolerated == 0 ? 100.0 : std::max(0.0, 100.0 - 50.0 * untolerated);
}

DefaultScheduler::DefaultScheduler(const ApiServer& api, std::uint64_t seed)
    : api_(&api), rng_(seed) {}

DefaultScheduler::DefaultScheduler(const DefaultScheduler& other,
                                   const ApiServer& api)
    : DefaultScheduler(other) {
  api_ = &api;
}

ScheduleResult DefaultScheduler::schedule(const PodSpec& pod) {
  ScheduleResult result;
  struct Candidate {
    const NodeEntry* node;
    double score;
    double tiebreak;
  };
  std::vector<Candidate> candidates;
  for (const auto& node : api_->nodes()) {
    if (!node.ready) {
      result.rejected.emplace_back(node.name, "node not ready");
      continue;
    }
    std::string reason = node_resources_fit(pod, node);
    if (reason.empty()) reason = node_affinity(pod, node);
    if (reason.empty()) reason = taint_toleration(pod, node);
    if (!reason.empty()) {
      result.rejected.emplace_back(node.name, reason);
      continue;
    }
    const double total = least_allocated_score(pod, node) +
                         balanced_allocation_score(pod, node) +
                         taint_toleration_score(pod, node);
    // kube-scheduler picks randomly among max-score nodes; a random tiebreak
    // key applied to *all* candidates realizes that and also gives a
    // deterministic full ranking for the Top-2 baseline measurement.
    candidates.push_back(Candidate{&node, total, rng_.uniform()});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.tiebreak > b.tiebreak;
            });
  result.ranking.reserve(candidates.size());
  for (const auto& c : candidates) {
    result.ranking.push_back(ScoredNode{c.node->name, c.score});
  }
  return result;
}

}  // namespace lts::k8s

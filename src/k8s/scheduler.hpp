// The default Kubernetes scheduler (kube-scheduler), reproduced as the
// paper's baseline (§3.1): a two-stage pipeline of *filtering* (eliminate
// nodes that cannot host the pod) and *scoring* (rank the rest), operating
// purely on declared resource requests and policy constraints. It never sees
// live telemetry — which is exactly why Table 4's baseline row is weak for
// network-bound jobs.
//
// The upstream default plugins are plain functions here, one per filter or
// score, called in the upstream order: tests exercise each on its own, and
// the experiment harness reads the full ranking (for Top-2 baseline
// accuracy). There is no plugin framework: nothing registers other plugins.
#pragma once

#include <string>
#include <vector>

#include "k8s/api.hpp"
#include "util/rng.hpp"

namespace lts::k8s {

// ---- Filters: "" if `node` can host `pod`, else a readable reason ----------

/// NodeResourcesFit: allocatable minus already-requested must cover the
/// pod's requests.
std::string node_resources_fit(const PodSpec& pod, const NodeEntry& node);

/// NodeAffinity: required node-name match expression, when present.
std::string node_affinity(const PodSpec& pod, const NodeEntry& node);

/// TaintToleration: every NoSchedule taint must be tolerated.
std::string taint_toleration(const PodSpec& pod, const NodeEntry& node);

// ---- Scores: in [0, 100], higher is better ---------------------------------

/// NodeResourcesLeastAllocated: prefers nodes with the most free *requested*
/// capacity after placing the pod (the upstream default for spreading load).
double least_allocated_score(const PodSpec& pod, const NodeEntry& node);

/// NodeResourcesBalancedAllocation: prefers nodes whose cpu and memory
/// request fractions stay close to each other after placement.
double balanced_allocation_score(const PodSpec& pod, const NodeEntry& node);

/// TaintToleration scoring: penalizes untolerated PreferNoSchedule taints.
double taint_toleration_score(const PodSpec& pod, const NodeEntry& node);

// ---- Scheduler -------------------------------------------------------------

struct ScoredNode {
  std::string name;
  double score = 0.0;
};

struct ScheduleResult {
  /// Feasible nodes, best first (ties broken by a seeded random draw, as the
  /// upstream scheduler selects randomly among equal-score nodes).
  std::vector<ScoredNode> ranking;
  /// Per-node filter rejection reasons for infeasible nodes.
  std::vector<std::pair<std::string, std::string>> rejected;

  bool feasible() const { return !ranking.empty(); }
  const std::string& selected() const {
    LTS_REQUIRE(feasible(), "ScheduleResult: no feasible node");
    return ranking.front().name;
  }
};

class DefaultScheduler {
 public:
  explicit DefaultScheduler(const ApiServer& api, std::uint64_t seed = 1);
  /// Member-wise copy of `other` (its tie-break stream state) re-pointed at
  /// `api`.
  DefaultScheduler(const DefaultScheduler& other, const ApiServer& api);

  DefaultScheduler& operator=(const DefaultScheduler&) = delete;

  /// Runs the three filters, then sums the three scores (each weight 1),
  /// for `pod` against all registered nodes. Does NOT bind — callers bind
  /// through the ApiServer, mirroring the scheduler/API-server split in
  /// Kubernetes.
  ScheduleResult schedule(const PodSpec& pod);

 private:
  /// Copies every member; the rebinding constructor re-points the API
  /// server.
  DefaultScheduler(const DefaultScheduler&) = default;

  const ApiServer* api_;
  Rng rng_;
};

}  // namespace lts::k8s

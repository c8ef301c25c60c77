// Decision Module (§3.2.3): ranks candidate nodes in ascending order of
// predicted job completion time; the top-ranked node is the launch node.
#pragma once

#include <string>
#include <vector>

#include "util/common.hpp"

namespace lts::core {

struct NodePrediction {
  std::string node;
  double predicted_duration = 0.0;  // seconds
  /// Set by the degraded scheduler on a model-ranked candidate whose
  /// telemetry is stale (imputed, not measured): it ranks below every
  /// fresh candidate, and predicted_duration stays its real prediction.
  bool stale = false;
};

struct Decision {
  /// Fresh candidates before stale ones, each ascending by predicted
  /// duration (ties broken by node name so the decision is deterministic).
  std::vector<NodePrediction> ranking;
  /// True if the fallback ranking produced this decision (model unusable or
  /// too little fresh telemetry); the "scores" are then spreading heuristic
  /// values, not predicted durations.
  bool used_fallback = false;
  /// Nodes pushed to the bottom of a model ranking for stale telemetry.
  int stale_demoted = 0;

  const std::string& selected() const;
};

class DecisionModule {
 public:
  static Decision rank(std::vector<NodePrediction> predictions);
};

}  // namespace lts::core

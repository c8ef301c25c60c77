#include "core/decision.hpp"

#include <algorithm>

namespace lts::core {

const std::string& Decision::selected() const {
  LTS_REQUIRE(!ranking.empty(), "Decision: empty ranking");
  return ranking.front().node;
}

Decision DecisionModule::rank(std::vector<NodePrediction> predictions) {
  LTS_REQUIRE(!predictions.empty(), "DecisionModule: no candidates");
  std::sort(predictions.begin(), predictions.end(),
            [](const NodePrediction& a, const NodePrediction& b) {
              if (a.stale != b.stale) return b.stale;
              if (a.predicted_duration != b.predicted_duration) {
                return a.predicted_duration < b.predicted_duration;
              }
              return a.node < b.node;
            });
  return Decision{std::move(predictions)};
}

}  // namespace lts::core

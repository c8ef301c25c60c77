#include "core/bandit.hpp"

#include <cmath>

namespace lts::core {

namespace {

// Exploration: epsilon(t) = max(kBanditMinEpsilon,
//                               kInitialEpsilon / sqrt(1 + t / kEpsilonDecay)).
constexpr double kInitialEpsilon = 0.5;
constexpr double kEpsilonDecay = 25.0;
static_assert(kInitialEpsilon >= 0.0 && kInitialEpsilon <= 1.0);

// Value model registry name; linear keeps per-update cost trivial.
constexpr const char* kValueModel = "linear";

}  // namespace

BanditScheduler::BanditScheduler(std::uint64_t seed) : rng_(seed) {
  replay_.set_feature_names(FeatureConstructor::feature_names(kBanditFeatures));
}

double BanditScheduler::current_epsilon() const {
  return std::max(kBanditMinEpsilon,
                  kInitialEpsilon /
                      std::sqrt(1.0 + static_cast<double>(observations_) /
                                          kEpsilonDecay));
}

std::size_t BanditScheduler::pick(const telemetry::ClusterSnapshot& snapshot,
                                  const spark::JobConfig& config) {
  LTS_REQUIRE(!snapshot.nodes.empty(), "BanditScheduler: empty snapshot");
  const auto n = static_cast<std::int64_t>(snapshot.nodes.size());
  if (!value_model_ready() || rng_.uniform() < current_epsilon()) {
    return static_cast<std::size_t>(rng_.uniform_int(0, n - 1));
  }
  return pick_greedy(snapshot, config);
}

std::size_t BanditScheduler::pick_greedy(
    const telemetry::ClusterSnapshot& snapshot,
    const spark::JobConfig& config) const {
  LTS_REQUIRE(value_model_ready(),
              "BanditScheduler: value model not fitted yet");
  std::size_t best = 0;
  double best_value = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < snapshot.nodes.size(); ++i) {
    const auto x =
        FeatureConstructor::build(snapshot.nodes[i], config, kBanditFeatures);
    const double predicted = value_model_->predict_row(x);
    if (predicted < best_value) {
      best_value = predicted;
      best = i;
    }
  }
  return best;
}

void BanditScheduler::observe(const telemetry::ClusterSnapshot& snapshot,
                              const spark::JobConfig& config,
                              std::size_t node, double duration) {
  LTS_REQUIRE(node < snapshot.nodes.size(), "BanditScheduler: bad node");
  LTS_REQUIRE(duration > 0.0, "BanditScheduler: duration must be positive");
  const auto x =
      FeatureConstructor::build(snapshot.nodes[node], config, kBanditFeatures);
  replay_.add_row(x, duration);
  ++observations_;
  maybe_refit();
}

void BanditScheduler::maybe_refit() {
  if (observations_ % kBanditRefitInterval != 0 && value_model_ready()) {
    return;
  }
  if (replay_.size() < 4) return;  // not enough to fit anything
  Json params = Json::object();
  params["log_target"] = true;
  auto model = ml::create_regressor(kValueModel, params);
  model->fit(replay_);
  value_model_ = std::move(model);
}

}  // namespace lts::core

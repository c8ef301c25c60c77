// Reinforcement-learning baseline: an online contextual bandit scheduler.
//
// The paper argues for supervised learning over RL on sample-efficiency and
// stability grounds (§2.3). This class makes the comparison concrete: a
// contextual bandit that learns placement *online*, one executed job at a
// time, from only the outcomes of its own choices (no counterfactuals, no
// batch sweep), with epsilon-greedy exploration and a periodically refit
// value model. bench_ext_rl_comparison plots its learning curve against
// the paper's offline-trained models at equal execution budgets.
#pragma once

#include <memory>
#include <vector>

#include "core/features.hpp"
#include "ml/model.hpp"
#include "spark/job.hpp"
#include "telemetry/snapshot.hpp"
#include "util/rng.hpp"

namespace lts::core {

/// Exploration floor: epsilon(t) never decays below this.
inline constexpr double kBanditMinEpsilon = 0.05;
/// Feature layout of the bandit's value model.
inline constexpr FeatureSet kBanditFeatures = FeatureSet::kTable1;
/// The value model is refit after every this many observations.
inline constexpr int kBanditRefitInterval = 10;
static_assert(kBanditRefitInterval >= 1);

class BanditScheduler {
 public:
  explicit BanditScheduler(std::uint64_t seed);

  /// Chooses a node index for `config` given the snapshot: with probability
  /// epsilon(t) explores uniformly, otherwise exploits the current value
  /// model (untrained model -> uniform).
  std::size_t pick(const telemetry::ClusterSnapshot& snapshot,
                   const spark::JobConfig& config);

  /// Like pick() with epsilon forced to zero (for evaluation).
  std::size_t pick_greedy(const telemetry::ClusterSnapshot& snapshot,
                          const spark::JobConfig& config) const;

  /// Feeds back the observed completion time of the job placed by the last
  /// pick() on `node`. The caller passes the same snapshot/config.
  void observe(const telemetry::ClusterSnapshot& snapshot,
               const spark::JobConfig& config, std::size_t node,
               double duration);

  int observations() const { return observations_; }
  double current_epsilon() const;
  bool value_model_ready() const {
    return value_model_ != nullptr && value_model_->is_fitted();
  }
  /// The current value model (null before the first refit); pick_greedy()
  /// picks the node it predicts fastest, on kBanditFeatures rows.
  std::shared_ptr<const ml::Regressor> value_model() const {
    return value_model_;
  }

 private:
  void maybe_refit();

  Rng rng_;
  int observations_ = 0;
  ml::Dataset replay_;  // (features of chosen node, duration)
  std::shared_ptr<const ml::Regressor> value_model_;
};

}  // namespace lts::core

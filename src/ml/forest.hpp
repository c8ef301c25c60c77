// Random forest regressor: bootstrap-bagged CART trees with per-split
// feature subsampling. The paper's best-performing model family (Table 4).
// Every prediction, the per-tree spread included, walks its FlatEnsemble.
#pragma once

#include <memory>

#include "ml/flat.hpp"
#include "ml/tree.hpp"

namespace lts {
class ThreadPool;
}

namespace lts::ml {

struct ForestParams {
  int n_estimators = 100;
  TreeParams tree;
  /// Features per split: 0 selects the regression heuristic max(1, p/3).
  int max_features = 0;
  std::uint64_t seed = 42;

  /// Older files' retired keys load only with the values ever written,
  /// "bootstrap": true and "compute_oob": false.
  static ForestParams from_json(const Json& j);
  Json to_json() const;
};

class RandomForestRegressor : public Regressor {
 public:
  explicit RandomForestRegressor(ForestParams params = {});

  void fit(const Dataset& data) override;
  void predict_batch(std::span<const double> x, std::size_t rows,
                     std::size_t cols, std::span<double> out) const override;
  /// Mean and standard deviation of the per-tree predictions, read from the
  /// kernel in tree order: the classic bagging uncertainty estimate.
  Prediction predict_with_uncertainty(
      std::span<const double> features) const override;
  bool is_fitted() const override { return !trees_.empty(); }
  std::string name() const override { return "random_forest"; }
  Json to_json() const override;
  void from_json(const Json& j) override;
  std::vector<double> feature_importances() const override;

  const ForestParams& params() const { return params_; }
  std::size_t num_trees() const { return trees_.size(); }
  const DecisionTreeRegressor& tree(std::size_t i) const;

  /// Trains on `pool` instead of the process-global one (nullptr restores
  /// the default). Each tree derives its Rng from (seed, tree index), so the
  /// fitted model is identical for any pool size — the determinism test
  /// exercises exactly this.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

 private:
  /// Re-flattens the whole ensemble (in tree order, with the tree count as
  /// the mean divisor); called wherever trees_ changes.
  void rebuild_flat();

  ForestParams params_;
  ThreadPool* pool_ = nullptr;
  std::vector<std::unique_ptr<DecisionTreeRegressor>> trees_;
  FlatEnsemble flat_;  // every tree of trees_, packed for prediction
  std::size_t num_features_ = 0;
};

}  // namespace lts::ml

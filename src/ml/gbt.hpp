// Gradient-boosted decision trees in the XGBoost formulation.
//
// Squared-error objective with second-order (Newton) boosting: per round,
// gradients g_i = pred_i - y_i and hessians h_i = 1 are fed to a regression
// tree grown by exact greedy split search maximizing the regularized gain
//
//   gain = 1/2 [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
//                - (G_L+G_R)^2/(H_L+H_R+lambda) ] - gamma
//
// with leaf weight -G/(H+lambda), shrunk by the learning rate. Row and
// column subsampling plus early stopping on a validation split match the
// XGBoost knobs the paper tuned. A tree is a TreeNode array whose leaf
// `value` is the shrunken weight; predictions walk a FlatEnsemble.
#pragma once

#include <memory>

#include "ml/colindex.hpp"
#include "ml/flat.hpp"
#include "ml/model.hpp"
#include "ml/tree.hpp"
#include "util/rng.hpp"

namespace lts::ml {

struct GbtParams {
  int n_rounds = 300;
  double learning_rate = 0.08;
  int max_depth = 4;
  double reg_lambda = 1.0;        // L2 on leaf weights
  double gamma = 0.0;             // min gain to split
  double min_child_weight = 1.0;  // min hessian sum per child
  double subsample = 1.0;         // row fraction per round
  double colsample = 1.0;         // feature fraction per round
  /// > 0 holds out validation_fraction of rows and stops after this many
  /// rounds without RMSE improvement.
  int early_stopping_rounds = 0;
  double validation_fraction = 0.15;
  std::uint64_t seed = 42;

  static GbtParams from_json(const Json& j);
  Json to_json() const;
};

class GradientBoostedTrees : public Regressor {
 public:
  explicit GradientBoostedTrees(GbtParams params = {});

  void fit(const Dataset& data) override;
  void predict_batch(std::span<const double> x, std::size_t rows,
                     std::size_t cols, std::span<double> out) const override;
  bool is_fitted() const override { return fitted_; }
  std::string name() const override { return "xgboost"; }
  Json to_json() const override;
  void from_json(const Json& j) override;
  std::vector<double> feature_importances() const override;

  const GbtParams& params() const { return params_; }
  std::size_t num_trees() const { return trees_.size(); }
  double base_score() const { return base_score_; }
  /// Best validation RMSE when early stopping was active, else NaN.
  double best_validation_rmse() const { return best_val_rmse_; }

 private:
  struct TreeBuildContext;

  /// Per-candidate-column split scan result (dataset feature id, not pool
  /// position; `column` is the round-column index for repartitioning).
  struct GbtSplit {
    int feature = -1;
    int column = -1;
    double threshold = 0.0;
    double gain = 0.0;
  };

  // Reusable training scratch, retained across rounds and fits (lint
  // rule R8): the dataset-wide presorted columns, the per-round filtered
  // columns, and every per-round vector that used to be allocated fresh.
  struct FitScratch {
    SortedColumns dataset_cols;  // all rows x all features, by (value, row)
    SortedColumns round_cols;    // this round's rows x pooled features
    std::vector<unsigned char> sampled;  // dataset-row mask for the round
    std::vector<std::size_t> rows;
    std::vector<std::size_t> feature_pool;
    std::vector<GbtSplit> feature_best;  // per-column scan slots
    std::vector<double> pred;
    std::vector<double> grad;
    std::vector<double> hess;
    FlatEnsemble round_flat;  // single-tree batched prediction update
  };

  int build_node(TreeBuildContext& ctx, std::vector<std::size_t>& rows,
                 std::size_t begin, std::size_t end, int depth,
                 std::vector<TreeNode>& tree);
  /// One boosting round on scratch_: gradient refresh over train_rows,
  /// row/column subsample draws from `rng`, grow a tree, update the
  /// prediction of every row, append the tree.
  void boost_one_round(const Dataset& data,
                       const std::vector<std::size_t>& train_rows, Rng& rng);
  /// Re-flattens the ensemble (tree order, base_score as the accumulator
  /// seed); called wherever trees_ or base_score_ changes.
  void rebuild_flat();

  GbtParams params_;
  bool fitted_ = false;
  double base_score_ = 0.0;
  std::size_t num_features_ = 0;
  std::vector<std::vector<TreeNode>> trees_;
  FlatEnsemble flat_;  // every tree of trees_, packed for prediction
  std::vector<double> importance_;  // raw gain per feature
  double best_val_rmse_ = std::numeric_limits<double>::quiet_NaN();
  FitScratch scratch_;
};

}  // namespace lts::ml

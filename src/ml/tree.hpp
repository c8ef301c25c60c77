// CART regression tree with variance (SSE) splitting — the building block
// of the random forest. A tree predicts by walking its node array; that
// walk is also the reference the ensembles' FlatEnsemble (flat.hpp) is
// tested against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "ml/colindex.hpp"
#include "ml/model.hpp"
#include "util/rng.hpp"

namespace lts::ml {

struct TreeParams {
  int max_depth = 12;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  /// Features considered per split; 0 = all. Random forests pass a subset
  /// size here to decorrelate trees.
  int max_features = 0;
  /// Minimum SSE decrease a split must achieve.
  double min_impurity_decrease = 0.0;

  static TreeParams from_json(const Json& j);
  Json to_json() const;
};

/// One node of a tree's flat node array; node 0 is the root. The doubles
/// come first so the node packs into 32 bytes without padding.
struct TreeNode {
  double threshold = 0.0;
  double value = 0.0;       // leaf prediction (a GBT leaf: shrunken weight)
  int feature = -1;         // -1 marks a leaf
  int left = -1;
  int right = -1;
  int n_samples = 0;        // training rows that reached the node (CART)

  bool is_leaf() const { return feature < 0; }
};
static_assert(sizeof(TreeNode) == 32);

/// Run on every loaded node array before anything walks it: throws an
/// lts::Error naming `what` and the node unless each internal node's feature
/// is below `num_features` (and fits the kernel's 16 bits), each child comes
/// after its parent inside the array, and no node is reached twice.
void check_tree_nodes(std::span<const TreeNode> nodes,
                      std::size_t num_features, const std::string& what);

/// A node array in the model file format: one [feature, threshold, left,
/// right, value] array per node, with n_samples appended when
/// `with_samples` (CART trees; boosted trees leave it out).
Json nodes_to_json(std::span<const TreeNode> nodes, bool with_samples);

/// Reads nodes_to_json's format and runs check_tree_nodes on the result; a
/// failure names `what` and the node.
std::vector<TreeNode> nodes_from_json(const Json& j, bool with_samples,
                                      std::size_t num_features,
                                      const std::string& what);

class DecisionTreeRegressor : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeParams params = {},
                                 std::uint64_t seed = 7);

  void fit(const Dataset& data) override;

  /// Fits on a row subset (duplicates allowed — bootstrap bags). `rng`
  /// drives per-split feature subsampling when params.max_features > 0.
  /// `presorted`, when given, must index every row of `data` once (the
  /// forest builds it one time per window); the tree then stamps out its
  /// bag's columns by multiplicity streaming instead of re-sorting.
  void fit_on(const Dataset& data, std::span<const std::size_t> rows,
              Rng& rng, const SortedColumns* presorted = nullptr);

  /// The pointer walk, one row at a time.
  void predict_batch(std::span<const double> x, std::size_t rows,
                     std::size_t cols, std::span<double> out) const override;
  bool is_fitted() const override { return !nodes_.empty(); }
  std::string name() const override { return "decision_tree"; }
  Json to_json() const override;
  void from_json(const Json& j) override;
  std::vector<double> feature_importances() const override;

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  std::size_t num_features() const { return num_features_; }
  int depth() const;
  std::size_t num_leaves() const;

 private:
  struct Split {
    int feature = -1;
    double threshold = 0.0;
    double gain = 0.0;  // SSE decrease
  };

  // Reusable per-fit training state: the per-feature sorted column indexes
  // (built once in fit_on, repartitioned down the recursion), the
  // candidate-feature list, and the per-feature scan result slots. Nothing
  // here is allocated per node.
  struct SplitScratch {
    std::vector<std::size_t> features;
    std::vector<Split> feature_best;  // one slot per candidate feature
    std::vector<std::uint32_t> mult;  // bag multiplicity per dataset row
    SortedColumns columns;
  };

  int build(const Dataset& data, std::vector<std::size_t>& rows,
            std::size_t begin, std::size_t end, int depth, Rng& rng,
            SplitScratch& scratch);
  /// Exact greedy split search over scratch.columns segment [begin, end)
  /// (the same index range `rows` spans in the row array). `sum` is the
  /// node's target total, already accumulated in row order by build().
  /// Candidate features scan independently — in parallel on the global
  /// pool for wide nodes — and reduce in feature order, reproducing the
  /// sequential strict-`>` selection bit for bit.
  std::optional<Split> best_split(const Dataset& data,
                                  std::span<const std::size_t> rows,
                                  std::size_t begin, std::size_t end,
                                  double sum, Rng& rng,
                                  SplitScratch& scratch) const;

  TreeParams params_;
  std::uint64_t seed_;
  std::size_t num_features_ = 0;
  std::vector<TreeNode> nodes_;
  std::vector<double> importance_;  // raw SSE decrease per feature
};

}  // namespace lts::ml

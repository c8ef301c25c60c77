// Pre-overhaul training reference, kept verbatim in spirit: the per-node
// gather + std::sort split search that ml::DecisionTreeRegressor and
// ml::GradientBoostedTrees ran before the presorted-column overhaul, plus
// the scalar per-row tree walk the GBT used for its per-round prediction
// update. bench_train_throughput measures the real trainers against these,
// and tests/train_test.cpp pins the two implementations together bit for
// bit (serialized models and predictions compare with EXPECT_EQ).
//
// The one deliberate divergence from the historical code: the GBT split
// threshold carries the adjacent-double midpoint snap (the fix the tree
// got first). The historical behavior for that input was an LTS_ASSERT
// abort, so both sides embody the fix and the regression test exercises it.
//
// Deliberately NOT reached by production code; shared by bench + tests via
// a relative include.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/tree.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace lts::trainref {

// ======================================================= decision tree ====

struct RefTree {
  std::vector<ml::TreeNode> nodes;
  std::vector<double> importance;
};

struct RefSplit {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

/// Per-node exact greedy split search: gather (x, y) pairs for every
/// candidate feature, std::sort, prefix-scan — the O(features x n log n)
/// per-node pattern the presorted columns replaced.
inline std::optional<RefSplit> split_search(
    const ml::Dataset& data, const ml::TreeParams& params,
    std::size_t num_features, std::span<const std::size_t> rows, Rng& rng,
    std::vector<std::size_t>& features,
    std::vector<std::pair<double, double>>& vals) {
  const std::size_t n = rows.size();
  double sum = 0.0, sumsq = 0.0;
  for (const std::size_t r : rows) {
    const double y = data.target(r);
    sum += y;
    sumsq += y * y;
  }
  const double parent_sse = sumsq - sum * sum / static_cast<double>(n);
  if (parent_sse <= 1e-12) return std::nullopt;  // pure node

  if (params.max_features > 0 &&
      static_cast<std::size_t>(params.max_features) < num_features) {
    rng.sample_without_replacement(
        num_features, static_cast<std::size_t>(params.max_features),
        features);
  } else {
    features.resize(num_features);
    std::iota(features.begin(), features.end(), std::size_t{0});
  }

  RefSplit best;
  vals.reserve(n);
  const auto min_leaf = static_cast<std::size_t>(params.min_samples_leaf);
  for (const std::size_t f : features) {
    vals.clear();
    for (const std::size_t r : rows) {
      vals.emplace_back(data.x()(r, f), data.target(r));
    }
    std::sort(vals.begin(), vals.end());
    double left_sum = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      left_sum += vals[i].second;
      if (i + 1 < min_leaf || n - i - 1 < min_leaf) continue;
      if (vals[i].first == vals[i + 1].first) continue;  // no boundary here
      const double nl = static_cast<double>(i + 1);
      const double nr = static_cast<double>(n - i - 1);
      const double right_sum = sum - left_sum;
      const double gain = left_sum * left_sum / nl +
                          right_sum * right_sum / nr -
                          sum * sum / static_cast<double>(n);
      if (gain > best.gain) {
        best.feature = static_cast<int>(f);
        double threshold = (vals[i].first + vals[i + 1].first) / 2.0;
        if (threshold >= vals[i + 1].first) threshold = vals[i].first;
        best.threshold = threshold;
        best.gain = gain;
      }
    }
  }
  if (best.feature < 0 || best.gain < params.min_impurity_decrease ||
      best.gain <= 1e-12) {
    return std::nullopt;
  }
  return best;
}

inline int grow_node(const ml::Dataset& data, const ml::TreeParams& params,
                     std::size_t num_features, RefTree& out,
                     std::vector<std::size_t>& rows, std::size_t begin,
                     std::size_t end, int depth, Rng& rng,
                     std::vector<std::size_t>& features,
                     std::vector<std::pair<double, double>>& vals) {
  const std::size_t n = end - begin;
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += data.target(rows[i]);
  const double node_mean = sum / static_cast<double>(n);

  const int node_index = static_cast<int>(out.nodes.size());
  out.nodes.push_back(ml::TreeNode{});
  out.nodes[static_cast<std::size_t>(node_index)].value = node_mean;
  out.nodes[static_cast<std::size_t>(node_index)].n_samples =
      static_cast<int>(n);

  const bool can_split =
      depth < params.max_depth &&
      n >= static_cast<std::size_t>(params.min_samples_split) &&
      n >= 2 * static_cast<std::size_t>(params.min_samples_leaf);
  if (!can_split) return node_index;

  const auto split = split_search(
      data, params, num_features,
      std::span<const std::size_t>(rows.data() + begin, n), rng, features,
      vals);
  if (!split.has_value()) return node_index;

  const auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end), [&](std::size_t r) {
        return data.x()(r, static_cast<std::size_t>(split->feature)) <=
               split->threshold;
      });
  const std::size_t mid = static_cast<std::size_t>(mid_it - rows.begin());
  LTS_ASSERT(mid > begin && mid < end);

  out.importance[static_cast<std::size_t>(split->feature)] += split->gain;

  const int left = grow_node(data, params, num_features, out, rows, begin,
                             mid, depth + 1, rng, features, vals);
  const int right = grow_node(data, params, num_features, out, rows, mid,
                              end, depth + 1, rng, features, vals);
  auto& node = out.nodes[static_cast<std::size_t>(node_index)];
  node.feature = split->feature;
  node.threshold = split->threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

inline RefTree fit_tree_on(const ml::Dataset& data,
                           const ml::TreeParams& params,
                           std::span<const std::size_t> rows, Rng& rng) {
  RefTree out;
  out.importance.assign(data.num_features(), 0.0);
  std::vector<std::size_t> working(rows.begin(), rows.end());
  std::vector<std::size_t> features;
  std::vector<std::pair<double, double>> vals;
  grow_node(data, params, data.num_features(), out, working, 0,
            working.size(), 0, rng, features, vals);
  return out;
}

/// Matches DecisionTreeRegressor::fit(data) with the given seed.
inline RefTree fit_tree(const ml::Dataset& data, const ml::TreeParams& params,
                        std::uint64_t seed) {
  std::vector<std::size_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  Rng rng(seed);
  return fit_tree_on(data, params, rows, rng);
}

inline double tree_value(const RefTree& t, std::span<const double> features) {
  int idx = 0;
  while (!t.nodes[static_cast<std::size_t>(idx)].is_leaf()) {
    const auto& node = t.nodes[static_cast<std::size_t>(idx)];
    idx = features[static_cast<std::size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
  }
  return t.nodes[static_cast<std::size_t>(idx)].value;
}

/// Mirrors DecisionTreeRegressor::to_json field for field.
inline Json tree_model_json(const RefTree& t, const ml::TreeParams& params,
                            std::size_t num_features) {
  Json j = Json::object();
  j["params"] = params.to_json();
  j["num_features"] = num_features;
  JsonArray nodes;
  nodes.reserve(t.nodes.size());
  for (const auto& node : t.nodes) {
    JsonArray fields;
    fields.emplace_back(node.feature);
    fields.emplace_back(node.threshold);
    fields.emplace_back(node.left);
    fields.emplace_back(node.right);
    fields.emplace_back(node.value);
    fields.emplace_back(node.n_samples);
    nodes.emplace_back(std::move(fields));
  }
  j["nodes"] = Json(std::move(nodes));
  j["importance"] = Json::from_doubles(t.importance);
  return j;
}

// ======================================================= random forest ====

struct RefForest {
  ml::ForestParams params;
  std::size_t num_features = 0;
  ml::TreeParams effective_tree;  // per-tree params with max_features applied
  std::vector<RefTree> trees;

  void fit(const ml::Dataset& data) {
    const std::size_t n = data.size();
    num_features = data.num_features();
    effective_tree = params.tree;
    effective_tree.max_features =
        params.max_features > 0
            ? params.max_features
            : std::max(1, static_cast<int>(num_features) / 3);
    trees.assign(static_cast<std::size_t>(params.n_estimators), RefTree{});
    // Same per-tree Rng derivation and parallel growth discipline as
    // RandomForestRegressor::fit — only the split finder inside each tree
    // differs, so the timing delta isolates the presort.
    // lts-lint: shared-guarded(partitioned: tree b writes only trees[b]; data/params are read-only)
    ThreadPool::global().parallel_for(trees.size(), [&](std::size_t b) {
      Rng rng(params.seed * 0x9e3779b97f4a7c15ULL + b * 2 + 1);
      std::vector<std::size_t> rows;
      rows.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        rows.push_back(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
      }
      trees[b] = fit_tree_on(data, effective_tree, rows, rng);
    });
  }

  double predict_one(std::span<const double> features) const {
    double total = 0.0;
    for (const auto& t : trees) total += tree_value(t, features);
    return total / static_cast<double>(trees.size());
  }
};

/// Mirrors RandomForestRegressor::to_json field for field.
inline Json forest_model_json(const RefForest& f) {
  Json j = Json::object();
  j["params"] = f.params.to_json();
  j["num_features"] = f.num_features;
  JsonArray trees;
  trees.reserve(f.trees.size());
  for (const auto& t : f.trees) {
    trees.push_back(tree_model_json(t, f.effective_tree, f.num_features));
  }
  j["trees"] = Json(std::move(trees));
  return j;
}

// ============================================= gradient-boosted trees ====

class RefGbt {
 public:
  explicit RefGbt(ml::GbtParams params) : params_(params) {}

  void fit(const ml::Dataset& data) {
    num_features_ = data.num_features();
    trees_.clear();
    importance_.assign(num_features_, 0.0);
    Rng rng(params_.seed);

    std::vector<std::size_t> train_rows(data.size());
    std::iota(train_rows.begin(), train_rows.end(), std::size_t{0});
    std::vector<std::size_t> val_rows;
    if (params_.early_stopping_rounds > 0 &&
        params_.validation_fraction > 0.0) {
      rng.shuffle(train_rows);
      const auto n_val = static_cast<std::size_t>(
          std::max(1.0, params_.validation_fraction *
                            static_cast<double>(data.size())));
      if (n_val + 4 <= data.size()) {
        val_rows.assign(
            train_rows.end() - static_cast<std::ptrdiff_t>(n_val),
            train_rows.end());
        train_rows.resize(train_rows.size() - n_val);
      }
    }

    base_score_ = mean(data.y());
    std::vector<double> pred(data.size(), base_score_);
    std::vector<double> grad(data.size(), 0.0);
    std::vector<double> hess(data.size(), 1.0);

    double best_rmse = std::numeric_limits<double>::infinity();
    int rounds_since_best = 0;
    std::size_t best_n_trees = 0;

    for (int round = 0; round < params_.n_rounds; ++round) {
      run_round(data, train_rows, pred, grad, hess, rng);
      if (!val_rows.empty()) {
        double acc = 0.0;
        for (const std::size_t i : val_rows) {
          const double d = pred[i] - data.target(i);
          acc += d * d;
        }
        const double val_rmse =
            std::sqrt(acc / static_cast<double>(val_rows.size()));
        if (val_rmse + 1e-12 < best_rmse) {
          best_rmse = val_rmse;
          best_n_trees = trees_.size();
          rounds_since_best = 0;
        } else if (++rounds_since_best >= params_.early_stopping_rounds) {
          break;
        }
      }
    }
    if (!val_rows.empty() && best_n_trees > 0) trees_.resize(best_n_trees);
    fitted_ = true;
  }

  double predict_one(std::span<const double> features) const {
    double y = base_score_;
    for (const auto& tree : trees_) y += walk_tree(tree, features);
    return y;
  }

  /// Mirrors GradientBoostedTrees::to_json field for field.
  Json model_json() const {
    Json j = Json::object();
    j["params"] = params_.to_json();
    j["fitted"] = fitted_;
    j["base_score"] = base_score_;
    j["num_features"] = num_features_;
    JsonArray trees;
    trees.reserve(trees_.size());
    for (const auto& tree : trees_) {
      JsonArray nodes;
      nodes.reserve(tree.size());
      for (const auto& node : tree) {
        JsonArray fields;
        fields.emplace_back(node.feature);
        fields.emplace_back(node.threshold);
        fields.emplace_back(node.left);
        fields.emplace_back(node.right);
        fields.emplace_back(node.value);
        nodes.emplace_back(std::move(fields));
      }
      trees.emplace_back(std::move(nodes));
    }
    j["trees"] = Json(std::move(trees));
    j["importance"] = Json::from_doubles(importance_);
    return j;
  }

  std::size_t num_trees() const { return trees_.size(); }

 private:
  struct Ctx {
    const ml::Dataset* data = nullptr;
    const std::vector<double>* grad = nullptr;
    const std::vector<double>* hess = nullptr;
    std::vector<std::size_t> feature_pool;
  };

  static double walk_tree(const std::vector<ml::TreeNode>& tree,
                          std::span<const double> features) {
    int idx = 0;
    while (!tree[static_cast<std::size_t>(idx)].is_leaf()) {
      const auto& node = tree[static_cast<std::size_t>(idx)];
      idx =
          features[static_cast<std::size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
    }
    return tree[static_cast<std::size_t>(idx)].value;
  }

  int grow_gbt_node(Ctx& ctx, std::vector<std::size_t>& rows,
                    std::size_t begin, std::size_t end, int depth,
                    std::vector<ml::TreeNode>& tree) {
    const auto& grad = *ctx.grad;
    const auto& hess = *ctx.hess;
    double g_total = 0.0, h_total = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      g_total += grad[rows[i]];
      h_total += hess[rows[i]];
    }
    const double lambda = params_.reg_lambda;

    const int node_index = static_cast<int>(tree.size());
    tree.push_back(ml::TreeNode{});
    tree[static_cast<std::size_t>(node_index)].value =
        -g_total / (h_total + lambda) * params_.learning_rate;

    if (depth >= params_.max_depth || end - begin < 2) return node_index;

    double best_gain = 0.0;
    int best_feature = -1;
    double best_threshold = 0.0;
    const double parent_term = g_total * g_total / (h_total + lambda);
    std::vector<std::pair<double, std::size_t>> vals;  // (x, row)
    vals.reserve(end - begin);
    for (const std::size_t f : ctx.feature_pool) {
      vals.clear();
      for (std::size_t i = begin; i < end; ++i) {
        vals.emplace_back(ctx.data->x()(rows[i], f), rows[i]);
      }
      std::sort(vals.begin(), vals.end());
      double g_left = 0.0, h_left = 0.0;
      for (std::size_t i = 0; i + 1 < vals.size(); ++i) {
        g_left += grad[vals[i].second];
        h_left += hess[vals[i].second];
        if (vals[i].first == vals[i + 1].first) continue;
        const double h_right = h_total - h_left;
        if (h_left < params_.min_child_weight ||
            h_right < params_.min_child_weight) {
          continue;
        }
        const double g_right = g_total - g_left;
        const double gain =
            0.5 * (g_left * g_left / (h_left + lambda) +
                   g_right * g_right / (h_right + lambda) - parent_term) -
            params_.gamma;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          double threshold = (vals[i].first + vals[i + 1].first) / 2.0;
          if (threshold >= vals[i + 1].first) threshold = vals[i].first;
          best_threshold = threshold;
        }
      }
    }
    if (best_feature < 0) return node_index;

    importance_[static_cast<std::size_t>(best_feature)] += best_gain;

    const auto mid_it = std::partition(
        rows.begin() + static_cast<std::ptrdiff_t>(begin),
        rows.begin() + static_cast<std::ptrdiff_t>(end), [&](std::size_t r) {
          return ctx.data->x()(r, static_cast<std::size_t>(best_feature)) <=
                 best_threshold;
        });
    const std::size_t mid = static_cast<std::size_t>(mid_it - rows.begin());
    LTS_ASSERT(mid > begin && mid < end);

    const int left = grow_gbt_node(ctx, rows, begin, mid, depth + 1, tree);
    const int right = grow_gbt_node(ctx, rows, mid, end, depth + 1, tree);
    auto& node = tree[static_cast<std::size_t>(node_index)];
    node.feature = best_feature;
    node.threshold = best_threshold;
    node.left = left;
    node.right = right;
    return node_index;
  }

  void run_round(const ml::Dataset& data,
                 const std::vector<std::size_t>& train_rows,
                 std::vector<double>& pred, std::vector<double>& grad,
                 std::vector<double>& hess, Rng& rng) {
    for (const std::size_t i : train_rows) {
      grad[i] = pred[i] - data.target(i);
    }
    std::vector<std::size_t> rows;
    if (params_.subsample < 1.0) {
      for (const std::size_t i : train_rows) {
        if (rng.uniform() < params_.subsample) rows.push_back(i);
      }
      if (rows.size() < 2) rows = train_rows;
    } else {
      rows = train_rows;
    }
    Ctx ctx;
    ctx.data = &data;
    ctx.grad = &grad;
    ctx.hess = &hess;
    if (params_.colsample < 1.0) {
      const auto k = static_cast<std::size_t>(std::max(
          1.0, params_.colsample * static_cast<double>(num_features_)));
      ctx.feature_pool = rng.sample_without_replacement(num_features_, k);
    } else {
      ctx.feature_pool.resize(num_features_);
      std::iota(ctx.feature_pool.begin(), ctx.feature_pool.end(),
                std::size_t{0});
    }

    std::vector<ml::TreeNode> tree;
    grow_gbt_node(ctx, rows, 0, rows.size(), 0, tree);
    for (std::size_t i = 0; i < data.size(); ++i) {
      pred[i] += walk_tree(tree, data.row(i));
    }
    trees_.push_back(std::move(tree));
  }

  ml::GbtParams params_;
  bool fitted_ = false;
  double base_score_ = 0.0;
  std::size_t num_features_ = 0;
  std::vector<std::vector<ml::TreeNode>> trees_;
  std::vector<double> importance_;
};

}  // namespace lts::trainref

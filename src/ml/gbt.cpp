#include "ml/gbt.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/metrics.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace lts::ml {

GbtParams GbtParams::from_json(const Json& j) {
  GbtParams p;
  if (j.contains("n_rounds")) p.n_rounds = j.int_at("n_rounds");
  if (j.contains("learning_rate")) {
    p.learning_rate = j.at("learning_rate").as_double();
  }
  if (j.contains("max_depth")) p.max_depth = j.int_at("max_depth");
  if (j.contains("reg_lambda")) p.reg_lambda = j.at("reg_lambda").as_double();
  if (j.contains("gamma")) p.gamma = j.at("gamma").as_double();
  if (j.contains("min_child_weight")) {
    p.min_child_weight = j.at("min_child_weight").as_double();
  }
  if (j.contains("subsample")) p.subsample = j.at("subsample").as_double();
  if (j.contains("colsample")) p.colsample = j.at("colsample").as_double();
  if (j.contains("early_stopping_rounds")) {
    p.early_stopping_rounds = j.int_at("early_stopping_rounds");
  }
  if (j.contains("validation_fraction")) {
    p.validation_fraction = j.at("validation_fraction").as_double();
  }
  if (j.contains("seed")) p.seed = j.uint_at("seed");
  return p;
}

Json GbtParams::to_json() const {
  Json j = Json::object();
  j["n_rounds"] = n_rounds;
  j["learning_rate"] = learning_rate;
  j["max_depth"] = max_depth;
  j["reg_lambda"] = reg_lambda;
  j["gamma"] = gamma;
  j["min_child_weight"] = min_child_weight;
  j["subsample"] = subsample;
  j["colsample"] = colsample;
  j["early_stopping_rounds"] = early_stopping_rounds;
  j["validation_fraction"] = validation_fraction;
  j["seed"] = static_cast<double>(seed);
  return j;
}

GradientBoostedTrees::GradientBoostedTrees(GbtParams params)
    : params_(params) {
  LTS_REQUIRE(params_.n_rounds >= 1, "GbtParams: n_rounds must be >= 1");
  LTS_REQUIRE(params_.learning_rate > 0.0 && params_.learning_rate <= 1.0,
              "GbtParams: learning_rate must be in (0, 1]");
  LTS_REQUIRE(params_.max_depth >= 1, "GbtParams: max_depth must be >= 1");
  LTS_REQUIRE(params_.reg_lambda >= 0.0, "GbtParams: reg_lambda must be >= 0");
  LTS_REQUIRE(params_.subsample > 0.0 && params_.subsample <= 1.0,
              "GbtParams: subsample must be in (0, 1]");
  LTS_REQUIRE(params_.colsample > 0.0 && params_.colsample <= 1.0,
              "GbtParams: colsample must be in (0, 1]");
}

struct GradientBoostedTrees::TreeBuildContext {
  const Dataset* data = nullptr;
  const std::vector<double>* grad = nullptr;
  const std::vector<double>* hess = nullptr;
  std::span<const std::size_t> feature_pool;  // columns usable this round
  const GbtParams* params = nullptr;
  std::vector<double>* importance = nullptr;
  SortedColumns* cols = nullptr;  // this round's presorted columns
  std::vector<GbtSplit>* feature_best = nullptr;  // per-column result slots
};

int GradientBoostedTrees::build_node(TreeBuildContext& ctx,
                                     std::vector<std::size_t>& rows,
                                     std::size_t begin, std::size_t end,
                                     int depth, std::vector<TreeNode>& tree) {
  const auto& grad = *ctx.grad;
  const auto& hess = *ctx.hess;
  double g_total = 0.0, h_total = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    g_total += grad[rows[i]];
    h_total += hess[rows[i]];
  }
  const double lambda = ctx.params->reg_lambda;

  const int node_index = static_cast<int>(tree.size());
  tree.push_back(TreeNode{});
  // Leaf weight (may be overwritten by a split below); shrinkage applied
  // here so prediction is a plain sum over trees.
  tree[static_cast<std::size_t>(node_index)].value =
      -g_total / (h_total + lambda) * ctx.params->learning_rate;

  if (depth >= ctx.params->max_depth || end - begin < 2) return node_index;

  // Exact greedy split search over the round's feature pool. Each pool
  // column sweeps its presorted slice [begin, end) — the (x, row) sequence
  // the per-node gather + std::sort used to produce (colindex.hpp), so the
  // g/h prefixes accumulate in the same order and every gain and threshold
  // is bit-identical. Columns touch only their own result slot, which makes
  // the fan-out below both safe and deterministic.
  const std::size_t n = end - begin;
  const double parent_term = g_total * g_total / (h_total + lambda);
  std::vector<GbtSplit>& slots = *ctx.feature_best;
  slots.assign(ctx.cols->num_cols(), GbtSplit{});
  const auto scan_one = [&](std::size_t c) {
    const double* xs = ctx.cols->x_col(c) + begin;
    const std::uint32_t* rs = ctx.cols->row_col(c) + begin;
    GbtSplit cand;
    double g_left = 0.0, h_left = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      g_left += grad[rs[i]];
      h_left += hess[rs[i]];
      if (xs[i] == xs[i + 1]) continue;
      const double h_right = h_total - h_left;
      if (h_left < ctx.params->min_child_weight ||
          h_right < ctx.params->min_child_weight) {
        continue;
      }
      const double g_right = g_total - g_left;
      const double gain =
          0.5 * (g_left * g_left / (h_left + lambda) +
                 g_right * g_right / (h_right + lambda) - parent_term) -
          ctx.params->gamma;
      if (gain > cand.gain) {
        cand.gain = gain;
        cand.feature = static_cast<int>(ctx.feature_pool[c]);
        cand.column = static_cast<int>(c);
        // The midpoint of two adjacent doubles can round up onto the right
        // value; `x <= threshold` would then send every row left and the
        // partition assert below would fire. Snap to the left value, which
        // always separates (it is strictly below xs[i + 1]).
        double threshold = (xs[i] + xs[i + 1]) / 2.0;
        if (threshold >= xs[i + 1]) threshold = xs[i];
        cand.threshold = threshold;
      }
    }
    slots[c] = cand;
  };
  if (use_parallel_columns(n, ctx.cols->num_cols())) {
    // lts-lint: shared-guarded(partitioned: column c writes only feature_best[c]; columns and grad/hess are read-only)
    ThreadPool::global().parallel_for(ctx.cols->num_cols(),
                                      [&](std::size_t c) { scan_one(c); });
  } else {
    for (std::size_t c = 0; c < ctx.cols->num_cols(); ++c) scan_one(c);
  }

  // Reduce the per-column slots in pool order under the same strict `>`
  // the sequential loop applied: the earliest column attaining the maximal
  // gain wins in both formulations.
  GbtSplit best;
  for (const GbtSplit& cand : slots) {
    if (cand.gain > best.gain) best = cand;
  }
  if (best.feature < 0) return node_index;

  (*ctx.importance)[static_cast<std::size_t>(best.feature)] += best.gain;

  // Carry the sorted columns through the split first: repartition marks
  // every row's side off the split column's own values — bitwise the
  // doubles a matrix lookup would return — and the row partition below
  // reuses those marks instead of re-gathering from the matrix.
  const std::size_t col_mid = ctx.cols->repartition(
      begin, end, static_cast<std::size_t>(best.column), best.threshold);

  const auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t r) { return ctx.cols->went_left(r); });
  const std::size_t mid = static_cast<std::size_t>(mid_it - rows.begin());
  LTS_ASSERT(mid > begin && mid < end);
  LTS_ASSERT(col_mid == mid);

  const int left = build_node(ctx, rows, begin, mid, depth + 1, tree);
  const int right = build_node(ctx, rows, mid, end, depth + 1, tree);
  auto& node = tree[static_cast<std::size_t>(node_index)];
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

void GradientBoostedTrees::fit(const Dataset& data) {
  LTS_REQUIRE(data.size() >= 4, "GBT: need at least 4 samples");
  num_features_ = data.num_features();
  trees_.clear();
  importance_.assign(num_features_, 0.0);
  best_val_rmse_ = std::numeric_limits<double>::quiet_NaN();
  Rng rng(params_.seed);

  // Optional holdout for early stopping.
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
      val_rows.assign(train_rows.end() - static_cast<std::ptrdiff_t>(n_val),
                      train_rows.end());
      train_rows.resize(train_rows.size() - n_val);
    }
  }

  base_score_ = mean(data.y());
  // Scratch-backed training state (capacity retained across fits) plus the
  // dataset-wide presorted columns every round's subsample filters from.
  FitScratch& s = scratch_;
  s.dataset_cols.build_by_value_row(data.x());
  s.pred.assign(data.size(), base_score_);
  s.grad.assign(data.size(), 0.0);
  s.hess.assign(data.size(), 1.0);

  double best_rmse = std::numeric_limits<double>::infinity();
  int rounds_since_best = 0;
  std::size_t best_n_trees = 0;

  for (int round = 0; round < params_.n_rounds; ++round) {
    boost_one_round(data, train_rows, rng);

    if (!val_rows.empty()) {
      double acc = 0.0;
      for (const std::size_t i : val_rows) {
        const double d = s.pred[i] - data.target(i);
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
  if (!val_rows.empty() && best_n_trees > 0) {
    trees_.resize(best_n_trees);  // roll back to the best iteration
    best_val_rmse_ = best_rmse;
  }
  fitted_ = true;
  rebuild_flat();
}

void GradientBoostedTrees::boost_one_round(
    const Dataset& data, const std::vector<std::size_t>& train_rows,
    Rng& rng) {
  FitScratch& s = scratch_;
  for (const std::size_t i : train_rows) {
    s.grad[i] = s.pred[i] - data.target(i);  // d/dp 1/2 (p - y)^2
  }
  // Row subsample for this round (scratch-backed, capacity retained).
  std::vector<std::size_t>& rows = s.rows;
  rows.clear();
  rows.reserve(train_rows.size());
  if (params_.subsample < 1.0) {
    for (const std::size_t i : train_rows) {
      if (rng.uniform() < params_.subsample) rows.push_back(i);
    }
    if (rows.size() < 2) rows.assign(train_rows.begin(), train_rows.end());
  } else {
    rows.assign(train_rows.begin(), train_rows.end());
  }
  // Column subsample.
  TreeBuildContext ctx;
  ctx.data = &data;
  ctx.grad = &s.grad;
  ctx.hess = &s.hess;
  ctx.params = &params_;
  ctx.importance = &importance_;
  if (params_.colsample < 1.0) {
    const auto k = static_cast<std::size_t>(std::max(
        1.0, params_.colsample * static_cast<double>(num_features_)));
    rng.sample_without_replacement(num_features_, k, s.feature_pool);
  } else {
    s.feature_pool.resize(num_features_);
    std::iota(s.feature_pool.begin(), s.feature_pool.end(), std::size_t{0});
  }
  ctx.feature_pool = s.feature_pool;

  // Carve this round's presorted columns out of the dataset-wide index:
  // mark the sampled rows, then filter each pooled feature's column. A
  // subsequence of a sorted column is sorted by the same key, so the slice
  // matches a fresh gather + sort bit for bit.
  s.sampled.assign(data.size(), 0);
  for (const std::size_t r : rows) s.sampled[r] = 1;
  s.round_cols.assign_filtered(s.dataset_cols, s.sampled, rows.size(),
                               s.feature_pool);
  ctx.cols = &s.round_cols;
  ctx.feature_best = &s.feature_best;

  std::vector<TreeNode> tree;
  build_node(ctx, rows, 0, rows.size(), 0, tree);
  // Update all predictions (train + validation) with the new tree: one
  // batched flat traversal adding the tree's leaf to each row's total.
  s.round_flat.clear();
  s.round_flat.add_tree(tree);
  s.round_flat.accumulate(data.x().data().data(), data.size(), num_features_,
                          s.pred.data());
  trees_.push_back(std::move(tree));
}

void GradientBoostedTrees::rebuild_flat() {
  flat_.clear();
  for (const auto& tree : trees_) flat_.add_tree(tree);
  // A prediction is ((base + t0) + t1) + ...: the kernel seeded with
  // base_score_ adds the trees' leaves in that order.
  flat_.set_init(base_score_);
}

void GradientBoostedTrees::predict_batch(std::span<const double> x,
                                         std::size_t rows, std::size_t cols,
                                         std::span<double> out) const {
  check_batch(x, rows, cols, out, num_features_);
  flat_.predict(x.data(), rows, cols, out.data());
}

Json GradientBoostedTrees::to_json() const {
  Json j = Json::object();
  j["params"] = params_.to_json();
  j["fitted"] = fitted_;
  j["base_score"] = base_score_;
  j["num_features"] = num_features_;
  JsonArray trees;
  trees.reserve(trees_.size());
  for (const auto& tree : trees_) {
    trees.push_back(nodes_to_json(tree, /*with_samples=*/false));
  }
  j["trees"] = Json(std::move(trees));
  j["importance"] = Json::from_doubles(importance_);
  return j;
}

void GradientBoostedTrees::from_json(const Json& j) {
  params_ = GbtParams::from_json(j.at("params"));
  fitted_ = j.at("fitted").as_bool();
  base_score_ = j.at("base_score").as_double();
  num_features_ = j.uint_at("num_features");
  trees_.clear();
  for (const auto& tree : j.at("trees").as_array()) {
    trees_.push_back(
        nodes_from_json(tree, /*with_samples=*/false, num_features_,
                        "GBT: tree " + std::to_string(trees_.size())));
  }
  importance_ = j.at("importance").to_doubles();
  rebuild_flat();
}

std::vector<double> GradientBoostedTrees::feature_importances() const {
  std::vector<double> imp = importance_;
  const double total = std::accumulate(imp.begin(), imp.end(), 0.0);
  if (total > 0.0) {
    for (auto& v : imp) v /= total;
  }
  return imp;
}

}  // namespace lts::ml

#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/flat.hpp"
#include "util/thread_pool.hpp"

namespace lts::ml {

TreeParams TreeParams::from_json(const Json& j) {
  TreeParams p;
  if (j.contains("max_depth")) p.max_depth = j.int_at("max_depth");
  if (j.contains("min_samples_split")) {
    p.min_samples_split = j.int_at("min_samples_split");
  }
  if (j.contains("min_samples_leaf")) {
    p.min_samples_leaf = j.int_at("min_samples_leaf");
  }
  if (j.contains("max_features")) p.max_features = j.int_at("max_features");
  if (j.contains("min_impurity_decrease")) {
    p.min_impurity_decrease = j.at("min_impurity_decrease").as_double();
  }
  return p;
}

Json TreeParams::to_json() const {
  Json j = Json::object();
  j["max_depth"] = max_depth;
  j["min_samples_split"] = min_samples_split;
  j["min_samples_leaf"] = min_samples_leaf;
  j["max_features"] = max_features;
  j["min_impurity_decrease"] = min_impurity_decrease;
  return j;
}

DecisionTreeRegressor::DecisionTreeRegressor(TreeParams params,
                                             std::uint64_t seed)
    : params_(params), seed_(seed) {
  LTS_REQUIRE(params_.max_depth >= 1, "TreeParams: max_depth must be >= 1");
  LTS_REQUIRE(params_.min_samples_leaf >= 1,
              "TreeParams: min_samples_leaf must be >= 1");
  LTS_REQUIRE(params_.min_samples_split >= 2,
              "TreeParams: min_samples_split must be >= 2");
}

void DecisionTreeRegressor::fit(const Dataset& data) {
  std::vector<std::size_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  Rng rng(seed_);
  fit_on(data, rows, rng);
}

void DecisionTreeRegressor::fit_on(const Dataset& data,
                                   std::span<const std::size_t> rows,
                                   Rng& rng,
                                   const SortedColumns* presorted) {
  LTS_REQUIRE(!rows.empty(), "DecisionTree: empty training set");
  num_features_ = data.num_features();
  nodes_.clear();
  importance_.assign(num_features_, 0.0);
  std::vector<std::size_t> working(rows.begin(), rows.end());
  SplitScratch scratch;
  // Sort every feature column once; build() then keeps each column's
  // segment aligned with the row partition, so no node ever re-sorts.
  // With a window-level presort on hand (forest fits share one across all
  // bags), even that sort disappears: the bag's columns stream out of the
  // presorted order by multiplicity, and duplicates of a row are fully
  // tied so the result is byte-for-byte the sorted bag.
  if (presorted != nullptr && presorted->size() == data.size() &&
      presorted->num_cols() == num_features_) {
    scratch.mult.assign(data.size(), 0);
    for (const std::size_t r : working) ++scratch.mult[r];
    scratch.columns.assign_bootstrap(*presorted, scratch.mult,
                                     working.size());
  } else {
    scratch.columns.build_by_value_target(data.x(), data.y(), working);
  }
  build(data, working, 0, working.size(), 0, rng, scratch);
}

int DecisionTreeRegressor::build(const Dataset& data,
                                 std::vector<std::size_t>& rows,
                                 std::size_t begin, std::size_t end,
                                 int depth, Rng& rng, SplitScratch& scratch) {
  const std::size_t n = end - begin;
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += data.target(rows[i]);
  const double node_mean = sum / static_cast<double>(n);

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(TreeNode{});
  nodes_[static_cast<std::size_t>(node_index)].value = node_mean;
  nodes_[static_cast<std::size_t>(node_index)].n_samples =
      static_cast<int>(n);

  const bool can_split =
      depth < params_.max_depth &&
      n >= static_cast<std::size_t>(params_.min_samples_split) &&
      n >= 2 * static_cast<std::size_t>(params_.min_samples_leaf);
  if (!can_split) return node_index;

  const auto split = best_split(
      data, std::span<const std::size_t>(rows.data() + begin, n), begin, end,
      sum, rng, scratch);
  if (!split.has_value()) return node_index;

  // Carry the sorted columns through the split first: repartition marks
  // every occurrence's side off the split column's own values — bitwise
  // the doubles a matrix lookup would return — and the row partition below
  // reuses those marks instead of re-gathering from the matrix.
  const std::size_t col_mid = scratch.columns.repartition(
      begin, end, static_cast<std::size_t>(split->feature),
      split->threshold);

  // Partition rows in place around the threshold.
  const auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t r) { return scratch.columns.went_left(r); });
  const std::size_t mid =
      static_cast<std::size_t>(mid_it - rows.begin());
  LTS_ASSERT(mid > begin && mid < end);
  LTS_ASSERT(col_mid == mid);

  importance_[static_cast<std::size_t>(split->feature)] += split->gain;

  const int left = build(data, rows, begin, mid, depth + 1, rng, scratch);
  const int right = build(data, rows, mid, end, depth + 1, rng, scratch);
  auto& node = nodes_[static_cast<std::size_t>(node_index)];
  node.feature = split->feature;
  node.threshold = split->threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

std::optional<DecisionTreeRegressor::Split>
DecisionTreeRegressor::best_split(const Dataset& data,
                                  std::span<const std::size_t> rows,
                                  std::size_t begin, std::size_t end,
                                  double sum, Rng& rng,
                                  SplitScratch& scratch) const {
  const std::size_t n = rows.size();
  LTS_ASSERT(end - begin == n);
  // `sum` arrives from build(), accumulated over the same rows in the same
  // order — the identical double this loop used to recompute.
  double sumsq = 0.0;
  for (const std::size_t r : rows) {
    const double y = data.target(r);
    sumsq += y * y;
  }
  const double parent_sse = sumsq - sum * sum / static_cast<double>(n);
  if (parent_sse <= 1e-12) return std::nullopt;  // pure node

  // Candidate features: all, or a fresh random subset (random forest mode).
  // Both buffers live in `scratch`, reused across every node of the fit.
  std::vector<std::size_t>& features = scratch.features;
  if (params_.max_features > 0 &&
      static_cast<std::size_t>(params_.max_features) < num_features_) {
    rng.sample_without_replacement(
        num_features_, static_cast<std::size_t>(params_.max_features),
        features);
  } else {
    features.resize(num_features_);
    std::iota(features.begin(), features.end(), std::size_t{0});
  }

  const auto min_leaf = static_cast<std::size_t>(params_.min_samples_leaf);
  scratch.feature_best.assign(features.size(), Split{});
  // Each candidate feature sweeps its own presorted slice [begin, end) —
  // the exact (x, y) sequence the per-node gather + std::sort used to
  // produce (colindex.hpp carries the argument) — so left_sum accumulates
  // in the same order and every gain and threshold is bit-identical.
  // Features touch only their own result slot, which makes the fan-out
  // below both safe and deterministic.
  const auto scan_one = [&](std::size_t fi) {
    const std::size_t f = features[fi];
    const double* xs = scratch.columns.x_col(f) + begin;
    const std::uint32_t* rs = scratch.columns.row_col(f) + begin;
    Split cand;
    double left_sum = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      left_sum += data.target(rs[i]);
      if (i + 1 < min_leaf || n - i - 1 < min_leaf) continue;
      if (xs[i] == xs[i + 1]) continue;  // no boundary here
      const double nl = static_cast<double>(i + 1);
      const double nr = static_cast<double>(n - i - 1);
      const double right_sum = sum - left_sum;
      // SSE decrease = parent_sse - (left_sse + right_sse); the sumsq terms
      // cancel, leaving the between-group variance gain below.
      const double gain = left_sum * left_sum / nl +
                          right_sum * right_sum / nr -
                          sum * sum / static_cast<double>(n);
      if (gain > cand.gain) {
        cand.feature = static_cast<int>(f);
        // The midpoint of two adjacent doubles can round up onto the right
        // value; `x <= threshold` would then send both sides left and the
        // split would partition nothing. Snap to the left value, which
        // always separates (it is strictly below xs[i + 1]).
        double threshold = (xs[i] + xs[i + 1]) / 2.0;
        if (threshold >= xs[i + 1]) threshold = xs[i];
        cand.threshold = threshold;
        cand.gain = gain;
      }
    }
    scratch.feature_best[fi] = cand;
  };
  if (use_parallel_columns(n, features.size())) {
    // lts-lint: shared-guarded(partitioned: feature fi writes only feature_best[fi]; columns and targets are read-only)
    ThreadPool::global().parallel_for(features.size(),
                                      [&](std::size_t fi) { scan_one(fi); });
  } else {
    for (std::size_t fi = 0; fi < features.size(); ++fi) scan_one(fi);
  }

  // Reduce the per-feature slots in feature order under the same strict `>`
  // the sequential loop applied: the earliest feature attaining the maximal
  // gain wins in both formulations.
  Split best;
  for (const Split& cand : scratch.feature_best) {
    if (cand.gain > best.gain) best = cand;
  }
  if (best.feature < 0 || best.gain < params_.min_impurity_decrease ||
      best.gain <= 1e-12) {
    return std::nullopt;
  }
  return best;
}

void DecisionTreeRegressor::predict_batch(std::span<const double> x,
                                          std::size_t rows, std::size_t cols,
                                          std::span<double> out) const {
  check_batch(x, rows, cols, out, num_features_);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = x.data() + r * cols;
    std::size_t idx = 0;
    while (!nodes_[idx].is_leaf()) {
      const TreeNode& node = nodes_[idx];
      idx = static_cast<std::size_t>(
          row[node.feature] <= node.threshold ? node.left : node.right);
    }
    out[r] = nodes_[idx].value;
  }
}

Json DecisionTreeRegressor::to_json() const {
  Json j = Json::object();
  j["params"] = params_.to_json();
  j["num_features"] = num_features_;
  j["nodes"] = nodes_to_json(nodes_, /*with_samples=*/true);
  j["importance"] = Json::from_doubles(importance_);
  return j;
}

void DecisionTreeRegressor::from_json(const Json& j) {
  params_ = TreeParams::from_json(j.at("params"));
  num_features_ = j.uint_at("num_features");
  nodes_ = nodes_from_json(j.at("nodes"), /*with_samples=*/true,
                           num_features_, "DecisionTree");
  importance_ = j.at("importance").to_doubles();
}

std::vector<double> DecisionTreeRegressor::feature_importances() const {
  std::vector<double> imp = importance_;
  const double total = std::accumulate(imp.begin(), imp.end(), 0.0);
  if (total > 0.0) {
    for (auto& v : imp) v /= total;
  }
  return imp;
}

int DecisionTreeRegressor::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the node array.
  std::vector<int> depth_of(nodes_.size(), 0);
  int max_depth = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& node = nodes_[i];
    if (!node.is_leaf()) {
      depth_of[static_cast<std::size_t>(node.left)] =
          depth_of[i] + 1;
      depth_of[static_cast<std::size_t>(node.right)] =
          depth_of[i] + 1;
    }
    max_depth = std::max(max_depth, depth_of[i]);
  }
  return max_depth;
}

std::size_t DecisionTreeRegressor::num_leaves() const {
  std::size_t count = 0;
  for (const auto& node : nodes_) {
    if (node.is_leaf()) ++count;
  }
  return count;
}

void check_tree_nodes(std::span<const TreeNode> nodes,
                      std::size_t num_features, const std::string& what) {
  const std::size_t features =
      std::min(num_features, FlatEnsemble::kMaxFeatures);
  const auto at = [&](std::size_t i) {
    return what + ": node " + std::to_string(i);
  };
  std::vector<char> reached(nodes.size(), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const TreeNode& node = nodes[i];
    if (node.is_leaf()) continue;
    LTS_REQUIRE(static_cast<std::size_t>(node.feature) < features,
                at(i) + " splits on feature " + std::to_string(node.feature) +
                    ", outside [0, " + std::to_string(features) + ")");
    for (const int child : {node.left, node.right}) {
      const auto c = static_cast<std::size_t>(child);
      LTS_REQUIRE(c > i && c < nodes.size(),
                  at(i) + " has child " + std::to_string(child) +
                      ", not after it inside the " +
                      std::to_string(nodes.size()) + "-node array");
      LTS_REQUIRE(reached[c] == 0, at(i) + " reaches node " +
                                       std::to_string(child) +
                                       ", which another edge reached first");
      reached[c] = 1;
    }
  }
}

Json nodes_to_json(std::span<const TreeNode> nodes, bool with_samples) {
  JsonArray out;
  out.reserve(nodes.size());
  for (const TreeNode& node : nodes) {
    JsonArray fields{node.feature, node.threshold, node.left, node.right,
                     node.value};
    if (with_samples) fields.emplace_back(node.n_samples);
    out.emplace_back(std::move(fields));
  }
  return Json(std::move(out));
}

std::vector<TreeNode> nodes_from_json(const Json& j, bool with_samples,
                                      std::size_t num_features,
                                      const std::string& what) {
  const std::size_t width = with_samples ? 6 : 5;
  const JsonArray& entries = j.as_array();
  std::vector<TreeNode> nodes(entries.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    try {
      const JsonArray& f = entries[i].as_array();
      LTS_REQUIRE(f.size() == width,
                  "expected " + std::to_string(width) + " fields");
      TreeNode& node = nodes[i];
      node.feature = f[0].as_int();
      node.threshold = f[1].as_double();
      node.left = f[2].as_int();
      node.right = f[3].as_int();
      node.value = f[4].as_double();
      if (with_samples) node.n_samples = f[5].as_int();
    } catch (const Error& e) {
      throw Error(what + ": node " + std::to_string(i) + ": " + e.what());
    }
  }
  check_tree_nodes(nodes, num_features, what);
  return nodes;
}

}  // namespace lts::ml

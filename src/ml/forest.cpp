#include "ml/forest.hpp"

#include <numeric>

#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace lts::ml {

ForestParams ForestParams::from_json(const Json& j) {
  ForestParams p;
  if (j.contains("n_estimators")) p.n_estimators = j.int_at("n_estimators");
  if (j.contains("tree")) p.tree = TreeParams::from_json(j.at("tree"));
  // Files written before these keys retired carry exactly these values.
  const auto retired = [&j](const std::string& key, bool only) {
    LTS_REQUIRE(!j.contains(key) || (j.at(key).is_bool() &&
                                     j.at(key).as_bool() == only),
                "ForestParams: retired key '" + key + "' must be " +
                    (only ? "true" : "false"));
  };
  retired("bootstrap", true);
  retired("compute_oob", false);
  if (j.contains("max_features")) p.max_features = j.int_at("max_features");
  if (j.contains("seed")) p.seed = j.uint_at("seed");
  return p;
}

Json ForestParams::to_json() const {
  Json j = Json::object();
  j["n_estimators"] = n_estimators;
  j["tree"] = tree.to_json();
  j["max_features"] = max_features;
  j["seed"] = static_cast<double>(seed);
  return j;
}

RandomForestRegressor::RandomForestRegressor(ForestParams params)
    : params_(params) {
  LTS_REQUIRE(params_.n_estimators >= 1,
              "ForestParams: need at least one tree");
}

void RandomForestRegressor::fit(const Dataset& data) {
  LTS_REQUIRE(!data.empty(), "RandomForest: empty training set");
  const std::size_t n = data.size();
  const std::size_t features = data.num_features();

  TreeParams tree_params = params_.tree;
  tree_params.max_features =
      params_.max_features > 0
          ? params_.max_features
          : std::max(1, static_cast<int>(features) / 3);

  // Grown into a local, so a fit that throws leaves the model as it was.
  std::vector<std::unique_ptr<DecisionTreeRegressor>> grown(
      static_cast<std::size_t>(params_.n_estimators));

  // Sort the window's feature columns once and share the result across
  // every bag: each tree streams its bootstrap columns out of this presort
  // by multiplicity instead of re-sorting, so the O(n log n) per column is
  // paid once per window rather than once per tree.
  SortedColumns presorted;
  {
    std::vector<std::size_t> all_rows(n);
    std::iota(all_rows.begin(), all_rows.end(), std::size_t{0});
    presorted.build_by_value_target(data.x(), data.y(), all_rows);
  }

  // Each tree gets an independent Rng derived from (seed, tree index), so
  // training is deterministic regardless of thread interleaving.
  ThreadPool& pool = pool_ ? *pool_ : ThreadPool::global();
  // lts-lint: shared-guarded(partitioned: tree b writes only grown[b]; data/params/presorted are read-only)
  pool.parallel_for(grown.size(), [&](std::size_t b) {
    Rng rng(params_.seed * 0x9e3779b97f4a7c15ULL + b * 2 + 1);
    std::vector<std::size_t> rows;
    rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      rows.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
    }
    auto tree = std::make_unique<DecisionTreeRegressor>(tree_params);
    tree->fit_on(data, rows, rng, &presorted);
    grown[b] = std::move(tree);
  });
  num_features_ = features;
  trees_ = std::move(grown);
  rebuild_flat();
}

void RandomForestRegressor::rebuild_flat() {
  flat_.clear();
  for (const auto& tree : trees_) flat_.add_tree(tree->nodes());
  // The mean of the member trees' walks is (t0 + t1 + ...)/n; the kernel
  // sums in tree order too, so the same divisor reproduces it bit for bit.
  flat_.set_divisor(static_cast<double>(trees_.size()));
}

void RandomForestRegressor::predict_batch(std::span<const double> x,
                                          std::size_t rows, std::size_t cols,
                                          std::span<double> out) const {
  check_batch(x, rows, cols, out, num_features_);
  flat_.predict(x.data(), rows, cols, out.data());
}

Prediction RandomForestRegressor::predict_with_uncertainty(
    std::span<const double> features) const {
  std::vector<double> leaves(trees_.size());
  check_batch(features, 1, features.size(), leaves, num_features_);
  flat_.tree_values(features.data(), 1, features.size(), leaves.data());
  RunningStats stats;
  for (const double v : leaves) stats.add(v);
  return Prediction{stats.mean(), stats.stddev()};
}

const DecisionTreeRegressor& RandomForestRegressor::tree(
    std::size_t i) const {
  LTS_REQUIRE(i < trees_.size(), "RandomForest: tree index out of range");
  return *trees_[i];
}

Json RandomForestRegressor::to_json() const {
  Json j = Json::object();
  j["params"] = params_.to_json();
  j["num_features"] = num_features_;
  JsonArray trees;
  trees.reserve(trees_.size());
  for (const auto& tree : trees_) {
    trees.push_back(tree->to_json());
  }
  j["trees"] = Json(std::move(trees));
  return j;
}

void RandomForestRegressor::from_json(const Json& j) {
  params_ = ForestParams::from_json(j.at("params"));
  num_features_ = j.uint_at("num_features");
  // Retired: it only salted warm refits, which no longer exist. Files
  // written before then carry a non-negative integer here.
  if (j.contains("refit_generation")) j.uint_at("refit_generation");
  trees_.clear();
  for (const auto& entry : j.at("trees").as_array()) {
    const std::string what = "RandomForest: tree " +
                             std::to_string(trees_.size());
    auto tree = std::make_unique<DecisionTreeRegressor>();
    try {
      tree->from_json(entry);
    } catch (const Error& e) {
      throw Error(what + ": " + e.what());
    }
    LTS_REQUIRE(tree->num_features() == num_features_,
                what + " has " + std::to_string(tree->num_features()) +
                    " features, the forest " +
                    std::to_string(num_features_));
    trees_.push_back(std::move(tree));
  }
  rebuild_flat();
}

std::vector<double> RandomForestRegressor::feature_importances() const {
  if (trees_.empty()) return {};
  std::vector<double> total(num_features_, 0.0);
  for (const auto& tree : trees_) {
    const auto imp = tree->feature_importances();
    for (std::size_t f = 0; f < total.size() && f < imp.size(); ++f) {
      total[f] += imp[f];
    }
  }
  const double sum = std::accumulate(total.begin(), total.end(), 0.0);
  if (sum > 0.0) {
    for (auto& v : total) v /= sum;
  }
  return total;
}

}  // namespace lts::ml

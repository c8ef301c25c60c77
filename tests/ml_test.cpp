// Unit tests for the ML library: matrix/solver, dataset, metrics, the four
// regressor families with serialization round-trips, uncertainty, model
// analysis, the model envelope with corrupt node arrays and out-of-range
// numbers, and the flat kernel against the reference walk.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>

#include "fakes.hpp"
#include "ml/dataset.hpp"
#include "ml/flat.hpp"
#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/linear.hpp"
#include "ml/matrix.hpp"
#include "ml/metrics.hpp"
#include "ml/model.hpp"
#include "ml/tree.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lts::ml {
namespace {

// Synthetic regression problem with known structure: linear part + an
// interaction + noise. Used across model families.
Dataset make_synthetic(std::size_t n, std::uint64_t seed,
                       double noise = 0.05, bool interaction = true) {
  Rng rng(seed);
  Dataset data;
  data.set_feature_names({"x0", "x1", "x2", "x3"});
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1, 1);
    const double x1 = rng.uniform(-1, 1);
    const double x2 = rng.uniform(0, 2);
    const double x3 = rng.uniform(-1, 1);  // irrelevant feature
    double y = 3.0 * x0 - 2.0 * x1 + 0.5 * x2 + 1.0;
    if (interaction) y += 2.0 * x0 * x1;
    y += noise * rng.normal();
    data.add_row(std::vector<double>{x0, x1, x2, x3}, y);
  }
  return data;
}

// --------------------------------------------------------------- matrix ----

TEST(Matrix, BasicAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
  EXPECT_DOUBLE_EQ(m.row(1)[2], 7.0);
}

TEST(Matrix, PushRowFixesWidth) {
  Matrix m;
  m.push_row(std::vector<double>{1, 2, 3});
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_THROW(m.push_row(std::vector<double>{1, 2}), Error);
  m.push_row(std::vector<double>{4, 5, 6});
  EXPECT_EQ(m.rows(), 2u);
}

TEST(Cholesky, SolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5]
  Matrix a(2, 2);
  a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
  const auto x = solve_cholesky(a, {10.0, 8.0});
  EXPECT_NEAR(x[0], 1.75, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 1;  // eigenvalue -1
  EXPECT_THROW(solve_cholesky(a, {1.0, 1.0}), Error);
}

TEST(Cholesky, LargerRandomSystem) {
  Rng rng(3);
  const std::size_t n = 12;
  // Build SPD A = B^T B + I and verify A x ~= b round trip.
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  Matrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) a(i, j) += b(k, i) * b(k, j);
    }
    a(i, i) += 1.0;
  }
  std::vector<double> rhs(n);
  for (auto& v : rhs) v = rng.normal();
  Matrix a_copy = a;
  const auto x = solve_cholesky(std::move(a_copy), rhs);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += a(i, j) * x[j];
    EXPECT_NEAR(acc, rhs[i], 1e-8);
  }
}

// -------------------------------------------------------------- dataset ----

TEST(Dataset, SelectWithDuplicates) {
  Dataset data = make_synthetic(10, 1);
  const std::vector<std::size_t> idx{0, 0, 5};
  const Dataset sub = data.select(idx);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub.target(0), sub.target(1));
  EXPECT_DOUBLE_EQ(sub.target(2), data.target(5));
}

TEST(Dataset, TrainTestSplitPartitions) {
  Dataset data = make_synthetic(100, 2);
  Rng rng(9);
  const auto [train, test] = data.train_test_split(0.25, rng);
  EXPECT_EQ(train.size(), 75u);
  EXPECT_EQ(test.size(), 25u);
  EXPECT_EQ(train.num_features(), 4u);
}

TEST(Dataset, MismatchedNamesRejected) {
  Dataset data;
  data.add_row(std::vector<double>{1.0, 2.0}, 3.0);
  EXPECT_THROW(data.set_feature_names({"only-one"}), Error);
}

// -------------------------------------------------------------- metrics ----

TEST(Metrics, Basics) {
  const std::vector<double> truth{1, 2, 3, 4};
  const std::vector<double> pred{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(rmse(truth, pred), 0.0);
  EXPECT_DOUBLE_EQ(mae(truth, pred), 0.0);
  EXPECT_DOUBLE_EQ(r2_score(truth, pred), 1.0);
  const std::vector<double> off{2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(rmse(truth, off), 1.0);
  EXPECT_DOUBLE_EQ(mae(truth, off), 1.0);
}

TEST(Metrics, R2OfMeanPredictorIsZero) {
  const std::vector<double> truth{1, 2, 3, 4, 5};
  const std::vector<double> mean_pred(5, 3.0);
  EXPECT_NEAR(r2_score(truth, mean_pred), 0.0, 1e-12);
}

// --------------------------------------------------------------- linear ----

TEST(Linear, RecoversCoefficientsWithoutInteraction) {
  const Dataset data = make_synthetic(2000, 7, 0.01, /*interaction=*/false);
  LinearRegression model;
  model.fit(data);
  ASSERT_EQ(model.coefficients().size(), 4u);
  EXPECT_NEAR(model.coefficients()[0], 3.0, 0.05);
  EXPECT_NEAR(model.coefficients()[1], -2.0, 0.05);
  EXPECT_NEAR(model.coefficients()[2], 0.5, 0.05);
  EXPECT_NEAR(model.coefficients()[3], 0.0, 0.05);
  EXPECT_NEAR(model.intercept(), 1.0, 0.1);
}

TEST(Linear, RidgeShrinksCoefficients) {
  const Dataset data = make_synthetic(100, 8, 0.1, false);
  LinearRegression ols{LinearParams{1e-8}};
  LinearRegression ridge{LinearParams{10.0}};
  ols.fit(data);
  ridge.fit(data);
  EXPECT_LT(std::abs(ridge.coefficients()[0]),
            std::abs(ols.coefficients()[0]));
}

TEST(Linear, HandlesCollinearFeaturesViaRidge) {
  Rng rng(11);
  Dataset data;
  for (int i = 0; i < 50; ++i) {
    const double x = rng.uniform(-1, 1);
    data.add_row(std::vector<double>{x, x}, 2.0 * x);  // perfectly collinear
  }
  LinearRegression model{LinearParams{1e-3}};
  model.fit(data);  // must not throw
  EXPECT_NEAR(model.predict_row(std::vector<double>{0.5, 0.5}), 1.0, 0.05);
}

TEST(Linear, SerializationRoundTrip) {
  const Dataset data = make_synthetic(200, 9);
  LinearRegression model;
  model.fit(data);
  const Json j = model_to_json(model);
  const auto restored = model_from_json(Json::parse(j.dump()));
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(restored->predict_row(data.row(i)),
                     model.predict_row(data.row(i)));
  }
}

TEST(Linear, ImportancesNormalized) {
  const Dataset data = make_synthetic(500, 10);
  LinearRegression model;
  model.fit(data);
  const auto imp = model.feature_importances();
  double total = 0;
  for (const double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(imp[0], imp[3]);  // x0 matters, x3 is noise
}

// ----------------------------------------------------------------- tree ----

TEST(Tree, FitsStepFunctionExactly) {
  Dataset data;
  for (int i = 0; i < 100; ++i) {
    const double x = i / 100.0;
    data.add_row(std::vector<double>{x}, x < 0.5 ? 1.0 : 5.0);
  }
  DecisionTreeRegressor tree{TreeParams{.max_depth = 3}};
  tree.fit(data);
  EXPECT_DOUBLE_EQ(tree.predict_row(std::vector<double>{0.2}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict_row(std::vector<double>{0.9}), 5.0);
  EXPECT_EQ(tree.num_leaves(), 2u);
}

TEST(Tree, RespectsMaxDepth) {
  const Dataset data = make_synthetic(300, 12);
  DecisionTreeRegressor tree{TreeParams{.max_depth = 2}};
  tree.fit(data);
  EXPECT_LE(tree.depth(), 2);
  EXPECT_LE(tree.num_leaves(), 4u);
}

TEST(Tree, MinSamplesLeafEnforced) {
  const Dataset data = make_synthetic(100, 13);
  TreeParams params;
  params.min_samples_leaf = 10;
  DecisionTreeRegressor tree{params};
  tree.fit(data);
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf()) {
      EXPECT_GE(node.n_samples, 10);
    }
  }
}

TEST(Tree, PureNodeStopsSplitting) {
  Dataset data;
  for (int i = 0; i < 20; ++i) {
    data.add_row(std::vector<double>{static_cast<double>(i)}, 42.0);
  }
  DecisionTreeRegressor tree;
  tree.fit(data);
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict_row(std::vector<double>{3.0}), 42.0);
}

TEST(Tree, BeatsLinearOnInteraction) {
  const Dataset train = make_synthetic(3000, 14, 0.01);
  const Dataset test = make_synthetic(500, 15, 0.01);
  DecisionTreeRegressor tree{TreeParams{.max_depth = 10}};
  LinearRegression linear;
  tree.fit(train);
  linear.fit(train);
  std::vector<double> tree_pred, lin_pred;
  for (std::size_t i = 0; i < test.size(); ++i) {
    tree_pred.push_back(tree.predict_row(test.row(i)));
    lin_pred.push_back(linear.predict_row(test.row(i)));
  }
  EXPECT_LT(rmse(test.y(), tree_pred), rmse(test.y(), lin_pred));
}

TEST(Tree, SerializationRoundTrip) {
  const Dataset data = make_synthetic(200, 16);
  DecisionTreeRegressor tree;
  tree.fit(data);
  const auto restored = model_from_json(Json::parse(
      model_to_json(tree).dump()));
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(restored->predict_row(data.row(i)),
                     tree.predict_row(data.row(i)));
  }
}

// --------------------------------------------------------------- forest ----

TEST(Forest, FitsAndGeneralizes) {
  const Dataset train = make_synthetic(2000, 17);
  const Dataset test = make_synthetic(400, 18);
  ForestParams params;
  params.n_estimators = 60;
  RandomForestRegressor forest{params};
  forest.fit(train);
  std::vector<double> pred;
  for (std::size_t i = 0; i < test.size(); ++i) {
    pred.push_back(forest.predict_row(test.row(i)));
  }
  EXPECT_GT(r2_score(test.y(), pred), 0.9);
}

TEST(Forest, DeterministicForSeed) {
  const Dataset data = make_synthetic(300, 19);
  ForestParams params;
  params.n_estimators = 20;
  params.seed = 5;
  RandomForestRegressor a{params}, b{params};
  a.fit(data);
  b.fit(data);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.predict_row(data.row(i)), b.predict_row(data.row(i)));
  }
}

TEST(Forest, DifferentSeedsDiffer) {
  const Dataset data = make_synthetic(300, 20);
  ForestParams pa, pb;
  pa.n_estimators = pb.n_estimators = 10;
  pa.seed = 1;
  pb.seed = 2;
  RandomForestRegressor a{pa}, b{pb};
  a.fit(data);
  b.fit(data);
  bool any_diff = false;
  for (std::size_t i = 0; i < 20 && !any_diff; ++i) {
    any_diff = a.predict_row(data.row(i)) != b.predict_row(data.row(i));
  }
  EXPECT_TRUE(any_diff);
}

TEST(Forest, RetiredKeysLoadOnlyWithTheirWrittenValues) {
  // Forest files written before `bootstrap` and `compute_oob` were removed
  // carry "bootstrap": true and "compute_oob": false. Those still load;
  // any other value fails naming the key.
  const Dataset data = make_synthetic(100, 46);
  ForestParams params;
  params.n_estimators = 8;
  RandomForestRegressor forest{params};
  forest.fit(data);
  Json old = model_to_json(forest);
  old["state"]["params"]["bootstrap"] = true;
  old["state"]["params"]["compute_oob"] = false;
  EXPECT_EQ(model_from_json(old)->predict_row(data.row(0)),
            forest.predict_row(data.row(0)));
  for (const auto& [key, value] :
       {std::pair{"bootstrap", false}, std::pair{"compute_oob", true}}) {
    Json bad = model_to_json(forest);
    bad["state"]["params"][key] = value;
    try {
      model_from_json(bad);
      ADD_FAILURE() << key << " = " << value << " loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(Forest, RetiredRefitGenerationLoadsAsAnyCountEverWritten) {
  // Forest files written while warm refits existed carry their refit count
  // "refit_generation", which only salted later refits. A non-negative
  // integer loads and the forest predicts bit for bit as before; any other
  // value fails naming the key. New files leave the key out.
  const Dataset data = make_synthetic(100, 46);
  ForestParams params;
  params.n_estimators = 8;
  RandomForestRegressor forest{params};
  forest.fit(data);
  Json old = model_to_json(forest);
  EXPECT_FALSE(old.at("state").contains("refit_generation"));
  old["state"]["refit_generation"] = 3;
  const auto loaded = model_from_json(old);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(loaded->predict_row(data.row(i)),
              forest.predict_row(data.row(i)));
  }
  for (const Json& value : {Json("3"), Json(-1), Json(2.5)}) {
    Json bad = model_to_json(forest);
    bad["state"]["refit_generation"] = value;
    try {
      model_from_json(bad);
      ADD_FAILURE() << "refit_generation " << value.dump() << " loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("'refit_generation'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Forest, ImportancesFavorInformativeFeatures) {
  const Dataset data = make_synthetic(2000, 22);
  ForestParams params;
  params.n_estimators = 40;
  RandomForestRegressor forest{params};
  forest.fit(data);
  const auto imp = forest.feature_importances();
  ASSERT_EQ(imp.size(), 4u);
  EXPECT_GT(imp[0], imp[3]);
  EXPECT_GT(imp[1], imp[3]);
  double total = 0;
  for (const double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Forest, SerializationRoundTrip) {
  const Dataset data = make_synthetic(300, 23);
  ForestParams params;
  params.n_estimators = 8;
  RandomForestRegressor forest{params};
  forest.fit(data);
  const auto restored = model_from_json(Json::parse(
      model_to_json(forest).dump()));
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(restored->predict_row(data.row(i)),
                     forest.predict_row(data.row(i)));
  }
}

// ------------------------------------------------------------------ gbt ----

TEST(Gbt, FitsAndGeneralizes) {
  const Dataset train = make_synthetic(2000, 24);
  const Dataset test = make_synthetic(400, 25);
  GbtParams params;
  params.n_rounds = 150;
  GradientBoostedTrees model{params};
  model.fit(train);
  std::vector<double> pred;
  for (std::size_t i = 0; i < test.size(); ++i) {
    pred.push_back(model.predict_row(test.row(i)));
  }
  EXPECT_GT(r2_score(test.y(), pred), 0.95);
}

TEST(Gbt, ShrinkageControlsStepSize) {
  const Dataset data = make_synthetic(500, 26);
  GbtParams slow, fast;
  slow.n_rounds = fast.n_rounds = 5;
  slow.learning_rate = 0.01;
  fast.learning_rate = 0.5;
  slow.early_stopping_rounds = fast.early_stopping_rounds = 0;
  GradientBoostedTrees a{slow}, b{fast};
  a.fit(data);
  b.fit(data);
  // After few rounds, the slow learner is still near the base score.
  double da = 0.0, db = 0.0;
  for (std::size_t i = 0; i < 50; ++i) {
    da += std::abs(a.predict_row(data.row(i)) - a.base_score());
    db += std::abs(b.predict_row(data.row(i)) - b.base_score());
  }
  EXPECT_LT(da, db);
}

TEST(Gbt, EarlyStoppingTruncatesRounds) {
  const Dataset data = make_synthetic(600, 27, 0.5);  // noisy: overfits fast
  GbtParams params;
  params.n_rounds = 500;
  params.learning_rate = 0.3;
  params.early_stopping_rounds = 10;
  params.validation_fraction = 0.2;
  GradientBoostedTrees model{params};
  model.fit(data);
  EXPECT_LT(model.num_trees(), 500u);
  EXPECT_FALSE(std::isnan(model.best_validation_rmse()));
}

TEST(Gbt, RegularizationShrinksLeafValues) {
  const Dataset data = make_synthetic(500, 28);
  GbtParams weak, strong;
  weak.n_rounds = strong.n_rounds = 30;
  weak.reg_lambda = 0.0;
  strong.reg_lambda = 100.0;
  weak.early_stopping_rounds = strong.early_stopping_rounds = 0;
  GradientBoostedTrees a{weak}, b{strong};
  a.fit(data);
  b.fit(data);
  double da = 0.0, db = 0.0;
  for (std::size_t i = 0; i < 50; ++i) {
    da += std::abs(a.predict_row(data.row(i)) - a.base_score());
    db += std::abs(b.predict_row(data.row(i)) - b.base_score());
  }
  EXPECT_GT(da, db);
}

TEST(Gbt, DeterministicForSeed) {
  const Dataset data = make_synthetic(300, 29);
  GbtParams params;
  params.n_rounds = 30;
  params.subsample = 0.7;
  params.colsample = 0.7;
  GradientBoostedTrees a{params}, b{params};
  a.fit(data);
  b.fit(data);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.predict_row(data.row(i)), b.predict_row(data.row(i)));
  }
}

TEST(Gbt, SerializationRoundTrip) {
  const Dataset data = make_synthetic(300, 30);
  GbtParams params;
  params.n_rounds = 20;
  GradientBoostedTrees model{params};
  model.fit(data);
  const auto restored = model_from_json(Json::parse(
      model_to_json(model).dump()));
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(restored->predict_row(data.row(i)),
                     model.predict_row(data.row(i)));
  }
}

TEST(Gbt, InvalidParamsRejected) {
  EXPECT_THROW(GradientBoostedTrees(GbtParams{.n_rounds = 0}), Error);
  EXPECT_THROW(GradientBoostedTrees(GbtParams{.learning_rate = 0.0}), Error);
  EXPECT_THROW(GradientBoostedTrees(GbtParams{.subsample = 1.5}), Error);
}

// ------------------------------------------------------------- registry ----

TEST(Registry, CreatesAllRegisteredModels) {
  for (const auto& name : registered_regressors()) {
    const auto model = create_regressor(name);
    EXPECT_EQ(model->name(), name);
    EXPECT_FALSE(model->is_fitted());
  }
  EXPECT_THROW(create_regressor("svm"), Error);
}

TEST(Registry, ParamsApplied) {
  Json params = Json::object();
  params["n_estimators"] = 7;
  const auto model = create_regressor("random_forest", params);
  const auto* forest = dynamic_cast<RandomForestRegressor*>(model.get());
  ASSERT_NE(forest, nullptr);
  EXPECT_EQ(forest->params().n_estimators, 7);
}

TEST(Registry, SaveLoadFile) {
  const Dataset data = make_synthetic(200, 31);
  const auto model = create_regressor("linear");
  model->fit(data);
  save_model(*model, "/tmp/lts_test_model.json");
  const auto restored = load_model("/tmp/lts_test_model.json");
  EXPECT_EQ(restored->name(), "linear");
  EXPECT_DOUBLE_EQ(restored->predict_row(data.row(0)),
                   model->predict_row(data.row(0)));
}

// ------------------------------------------------------------ log target ----

TEST(LogTarget, PredictsInOriginalScale) {
  Rng rng(32);
  Dataset data;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0.0, 3.0);
    data.add_row(std::vector<double>{x}, std::exp(x));  // log-linear truth
  }
  LogTargetRegressor model(create_regressor("linear"));
  model.fit(data);
  EXPECT_NEAR(model.predict_row(std::vector<double>{2.0}), std::exp(2.0),
              0.5);
}

TEST(LogTarget, RejectsNonPositiveTargets) {
  Dataset data;
  data.add_row(std::vector<double>{1.0}, 0.0);
  data.add_row(std::vector<double>{2.0}, 1.0);
  LogTargetRegressor model(create_regressor("linear"));
  EXPECT_THROW(model.fit(data), Error);
}

TEST(LogTarget, RegistryWrapAndSerialize) {
  Json params = Json::object();
  params["log_target"] = true;
  const auto model = create_regressor("linear", params);
  EXPECT_NE(dynamic_cast<LogTargetRegressor*>(model.get()), nullptr);

  Rng rng(33);
  Dataset data;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(0.0, 2.0);
    data.add_row(std::vector<double>{x}, 1.0 + x);
  }
  model->fit(data);
  const auto restored = model_from_json(Json::parse(
      model_to_json(*model).dump()));
  EXPECT_NE(dynamic_cast<LogTargetRegressor*>(restored.get()), nullptr);
  EXPECT_DOUBLE_EQ(restored->predict_row(data.row(0)),
                   model->predict_row(data.row(0)));
}

}  // namespace
}  // namespace lts::ml

// ---------------------------------------------------------- uncertainty ----

namespace lts::ml {
namespace {

TEST(Uncertainty, PointModelsReportZeroSpread) {
  const Dataset data = make_synthetic(200, 40);
  for (const std::string name : {"linear", "decision_tree", "xgboost"}) {
    const auto model = create_regressor(name);
    model->fit(data);
    const auto p = model->predict_with_uncertainty(data.row(0));
    EXPECT_DOUBLE_EQ(p.stddev, 0.0) << name;
    EXPECT_DOUBLE_EQ(p.mean, model->predict_row(data.row(0))) << name;
  }
}

TEST(Uncertainty, ForestSpreadIsMeaningful) {
  const Dataset data = make_synthetic(500, 41, 0.3);
  ForestParams params;
  params.n_estimators = 50;
  RandomForestRegressor forest{params};
  forest.fit(data);
  const auto in_dist = forest.predict_with_uncertainty(data.row(0));
  EXPECT_DOUBLE_EQ(in_dist.mean, forest.predict_row(data.row(0)));
  EXPECT_GT(in_dist.stddev, 0.0);
  // Far outside the training range the trees disagree at least as much.
  const std::vector<double> far{50.0, -50.0, 100.0, 0.0};
  const auto out_dist = forest.predict_with_uncertainty(far);
  EXPECT_GE(out_dist.stddev, 0.0);
}

TEST(Uncertainty, ForestSpreadIsRunningStatsOverMemberTrees) {
  // The forest's spread reads each tree's leaf from its flat kernel. The
  // reference is the member trees' own walks in tree order: the kernel's
  // per-tree values equal them one by one, and RunningStats over them gives
  // the same mean and stddev, bit for bit.
  const Dataset data = make_synthetic(300, 44, 0.3);
  ForestParams params;
  params.n_estimators = 40;
  RandomForestRegressor forest{params};
  forest.fit(data);
  FlatEnsemble flat;
  for (std::size_t t = 0; t < forest.num_trees(); ++t) {
    flat.add_tree(forest.tree(t).nodes());
  }
  const std::size_t rows = 20, cols = data.num_features();
  std::vector<double> per_tree(rows * forest.num_trees());
  flat.tree_values(data.x().data().data(), rows, cols, per_tree.data());
  for (std::size_t r = 0; r < rows; ++r) {
    RunningStats walks;
    for (std::size_t t = 0; t < forest.num_trees(); ++t) {
      const double leaf = forest.tree(t).predict_row(data.row(r));
      EXPECT_EQ(per_tree[r * forest.num_trees() + t], leaf)
          << "row " << r << " tree " << t;
      walks.add(leaf);
    }
    const auto p = forest.predict_with_uncertainty(data.row(r));
    EXPECT_EQ(p.mean, walks.mean()) << "row " << r;
    EXPECT_EQ(p.stddev, walks.stddev()) << "row " << r;
  }
}

TEST(Uncertainty, LogTargetTransformsSpread) {
  Rng rng(42);
  Dataset data;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(0.0, 2.0);
    data.add_row(std::vector<double>{x}, std::exp(x + 0.1 * rng.normal()));
  }
  Json params = Json::object();
  params["log_target"] = true;
  params["n_estimators"] = 30;
  const auto model = create_regressor("random_forest", params);
  model->fit(data);
  const std::vector<double> x{1.0};
  const auto p = model->predict_with_uncertainty(x);
  EXPECT_NEAR(p.mean, model->predict_row(x), 1e-9);
  EXPECT_GT(p.stddev, 0.0);
  // Spread is in original (seconds) scale: same order as the mean's noise.
  EXPECT_LT(p.stddev, p.mean);
}

}  // namespace
}  // namespace lts::ml

// ------------------------------------------------------------- analysis ----

#include "ml/analysis.hpp"

namespace lts::ml {
namespace {

TEST(Analysis, PermutationImportanceFindsRealFeatures) {
  const Dataset train = make_synthetic(1500, 50);
  const Dataset test = make_synthetic(400, 51);
  ForestParams params;
  params.n_estimators = 40;
  RandomForestRegressor forest{params};
  forest.fit(train);
  const auto imp = permutation_importance(forest, test);
  ASSERT_EQ(imp.importance.size(), 4u);
  EXPECT_GT(imp.baseline_rmse, 0.0);
  // x0, x1 matter; x3 is pure noise.
  EXPECT_GT(imp.importance[0], 5.0 * imp.importance[3] + 1e-6);
  EXPECT_GT(imp.importance[1], 5.0 * imp.importance[3] + 1e-6);
}

TEST(Analysis, PermutationImportanceDeterministic) {
  const Dataset data = make_synthetic(300, 52);
  LinearRegression model;
  model.fit(data);
  const auto a = permutation_importance(model, data, 2, 5);
  const auto b = permutation_importance(model, data, 2, 5);
  EXPECT_EQ(a.importance, b.importance);
}

TEST(Analysis, PartialDependenceRecoversMonotoneEffect) {
  // y = 3*x0 ... : PD along x0 must be increasing.
  const Dataset data = make_synthetic(1000, 53, 0.05, false);
  ForestParams params;
  params.n_estimators = 40;
  RandomForestRegressor forest{params};
  forest.fit(data);
  const auto pd = partial_dependence(forest, data, 0, 8);
  ASSERT_GE(pd.grid.size(), 4u);
  EXPECT_LT(pd.response.front(), pd.response.back());
  // And flat along the noise feature x3.
  const auto pd_noise = partial_dependence(forest, data, 3, 8);
  const double swing =
      std::abs(pd_noise.response.back() - pd_noise.response.front());
  const double real_swing =
      std::abs(pd.response.back() - pd.response.front());
  EXPECT_LT(swing, real_swing / 3.0);
}

TEST(Analysis, InputValidation) {
  const Dataset data = make_synthetic(50, 54);
  LinearRegression unfitted;
  EXPECT_THROW(permutation_importance(unfitted, data), Error);
  LinearRegression model;
  model.fit(data);
  EXPECT_THROW(partial_dependence(model, data, 99), Error);
  EXPECT_THROW(partial_dependence(model, data, 0, 1), Error);
}

// --------------------------------------------- envelope and atomic save ----

/// make_synthetic with the target shifted positive, so log-target wrapping
/// (which requires y > 0) can fit the same problem.
Dataset make_positive_synthetic(std::size_t n, std::uint64_t seed) {
  Dataset raw = make_synthetic(n, seed);
  Dataset data;
  data.set_feature_names(raw.feature_names());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto row = raw.row(i);
    data.add_row(std::vector<double>(row.begin(), row.end()),
                 raw.target(i) + 10.0);
  }
  return data;
}

/// Small hyperparameters per family so the full registry sweep stays fast.
Json small_params(const std::string& name, bool log_target) {
  Json p = Json::object();
  p["log_target"] = log_target;
  if (name == "random_forest") p["n_estimators"] = 12;
  if (name == "xgboost") p["n_rounds"] = 15;
  return p;
}

TEST(Envelope, RoundTripsEveryFamilyPlainAndLogWrapped) {
  const Dataset data = make_positive_synthetic(150, 41);
  for (const auto& name : registered_regressors()) {
    for (const bool wrapped : {false, true}) {
      const auto model = create_regressor(name, small_params(name, wrapped));
      ASSERT_EQ(dynamic_cast<LogTargetRegressor*>(model.get()) != nullptr,
                wrapped)
          << name;
      model->fit(data);
      const std::string path = std::string("/tmp/lts_envelope_") + name +
                               (wrapped ? "_log" : "_plain") + ".json";
      save_model(*model, path, 7);
      const auto loaded = load_model_envelope(path);
      EXPECT_EQ(loaded.version, 7u) << name;
      EXPECT_EQ(loaded.model->name(), name);
      EXPECT_EQ(dynamic_cast<LogTargetRegressor*>(loaded.model.get()) !=
                    nullptr,
                wrapped)
          << name;
      // Bit-identical predictions after save -> load, not merely close.
      for (std::size_t i = 0; i < 25; ++i) {
        EXPECT_DOUBLE_EQ(loaded.model->predict_row(data.row(i)),
                         model->predict_row(data.row(i)))
            << name << (wrapped ? " (log)" : " (plain)") << " row " << i;
      }
      std::ifstream tmp(path + ".tmp");
      EXPECT_FALSE(tmp.good()) << "atomic save left " << path << ".tmp";
      std::remove(path.c_str());
    }
  }
}

TEST(Envelope, VersionDefaultsToZeroAndRejectsNegative) {
  const Dataset data = make_synthetic(40, 42);
  LinearRegression model;
  model.fit(data);

  // model_to_json without a version and pre-versioning envelopes (no
  // model_version key at all) both read back as version 0.
  EXPECT_EQ(model_version_from_json(model_to_json(model)), 0u);
  Json legacy = Json::object();
  legacy["type"] = "linear";
  legacy["state"] = model.to_json();
  EXPECT_EQ(model_version_from_json(legacy), 0u);

  Json negative = model_to_json(model);
  negative["model_version"] = -3.0;
  EXPECT_THROW(model_version_from_json(negative), Error);
}

TEST(Envelope, LoadFailuresReportPathAndReason) {
  const auto expect_load_error = [](const std::string& path,
                                    const std::string& fragment) {
    try {
      load_model(path);
      FAIL() << "expected load_model(" << path << ") to throw";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find(fragment), std::string::npos) << what;
    }
  };

  const auto write_file = [](const std::string& path,
                             const std::string& text) {
    std::ofstream f(path, std::ios::trunc);
    f << text;
  };

  expect_load_error("/tmp/lts_definitely_missing_model.json", "cannot open");

  const std::string path = "/tmp/lts_corrupt_model.json";
  write_file(path, "{\"type\": \"linear\", \"state\":");  // truncated
  expect_load_error(path, "");
  write_file(path, "[1, 2, 3]");  // not an object
  expect_load_error(path, "expected a JSON object");
  write_file(path, "{\"state\": {}}");  // no type tag
  expect_load_error(path, "'type'");
  write_file(path, "{\"type\": \"linear\"}");  // no learned state
  expect_load_error(path, "'state'");
  write_file(path, "{\"type\": \"svm\", \"state\": {}}");  // unknown family
  expect_load_error(path, "unknown model name");
  std::remove(path.c_str());
}

TEST(Envelope, CorruptNodeArraysFailCleanly) {
  // A loaded node array is checked before anything walks it: a child
  // outside the array, a back edge (on which a walk would never end), a
  // feature beyond the model's width, and a feature or child that is not
  // an int (read before any cast could overflow) each fail with an
  // lts::Error naming the node, for every tree family and through the
  // envelope loader.
  const Dataset data = make_synthetic(120, 45);
  struct Corruption {
    std::size_t field;  // root's [feature, threshold, left, right, ...]
    double value;
    std::string fragment;
  };
  const Corruption corruptions[] = {
      {2, 1e8, "node 0 has child 100000000"},
      {3, 0.0, "node 0 has child 0"},
      {0, 4.0, "node 0 splits on feature 4"},
      {0, 1e10, "node 0: Json: value must be an int, got 10000000000"},
      {2, 2.5, "node 0: Json: value must be an int, got 2.5"},
  };
  for (const std::string family :
       {"decision_tree", "random_forest", "xgboost"}) {
    const auto model = create_regressor(family, small_params(family, false));
    model->fit(data);
    for (const Corruption& c : corruptions) {
      Json envelope = model_to_json(*model);
      Json& state = envelope["state"];
      Json& root = family == "decision_tree"
                       ? state["nodes"].as_array()[0]
                   : family == "random_forest"
                       ? state["trees"].as_array()[0]["nodes"].as_array()[0]
                       : state["trees"].as_array()[0].as_array()[0];
      JsonArray& fields = root.as_array();
      ASSERT_GE(fields[0].as_int(), 0) << family << ": root is a leaf";
      fields[c.field] = c.value;
      try {
        model_from_json(envelope);
        ADD_FAILURE() << family << " loaded with " << c.fragment;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(c.fragment), std::string::npos)
            << family << ": " << e.what();
      }
    }
  }
}

TEST(Envelope, OutOfRangeNumbersFailNamingTheKey) {
  // Counts, seeds and versions are doubles in the file. One that is not an
  // integer in its type's range fails with an lts::Error naming its key,
  // before any cast could overflow.
  const auto expect_error = [](const auto& load, const std::string& what) {
    try {
      load();
      ADD_FAILURE() << "loaded with " << what;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  const Dataset data = make_synthetic(120, 45);
  for (const std::string family :
       {"decision_tree", "random_forest", "xgboost"}) {
    const auto model = create_regressor(family, small_params(family, false));
    model->fit(data);
    Json envelope = model_to_json(*model);
    envelope["state"]["num_features"] = -1.0;
    expect_error([&] { model_from_json(envelope); },
                 "'num_features' must be a non-negative integer, got -1");
    if (family == "decision_tree") continue;  // a lone tree has no seed
    envelope = model_to_json(*model);
    envelope["state"]["params"]["seed"] = -1.0;
    expect_error([&] { model_from_json(envelope); },
                 "'seed' must be a non-negative integer, got -1");
  }
  Json envelope = model_to_json(*create_regressor("linear"));
  envelope["model_version"] = 1e30;
  expect_error([&] { model_version_from_json(envelope); },
               "'model_version' must be a non-negative integer");
}

TEST(Envelope, FailedSaveLeavesNoFiles) {
  const Dataset data = make_synthetic(40, 43);
  LinearRegression model;
  model.fit(data);
  const std::string path = "/tmp/lts_no_such_dir/model.json";
  EXPECT_THROW(save_model(model, path), Error);
  std::ifstream out(path);
  EXPECT_FALSE(out.good());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

// Complete binary tree with `depth` levels of internal nodes in heap
// layout: 2^(depth+1)-1 nodes total. Thresholds and leaf values vary
// deterministically so different inputs reach different leaves.
std::vector<TreeNode> complete_tree(int depth, int num_features) {
  const std::size_t n = (std::size_t{2} << depth) - 1;
  const std::size_t first_leaf = (std::size_t{1} << depth) - 1;
  std::vector<TreeNode> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& node = nodes[i];
    node.n_samples = 1;
    if (i < first_leaf) {
      node.feature = static_cast<int>(i % num_features);
      node.threshold = static_cast<double>((i * 37) % 101) / 50.5 - 1.0;
      node.left = static_cast<int>(2 * i + 1);
      node.right = static_cast<int>(2 * i + 2);
    } else {
      node.value = static_cast<double>(i) * 1e-3;
    }
  }
  return nodes;
}

Json tree_to_json(const std::vector<TreeNode>& nodes, int num_features) {
  Json j = Json::object();
  j["params"] = TreeParams{}.to_json();
  j["num_features"] = num_features;
  JsonArray arr;
  arr.reserve(nodes.size());
  for (const auto& node : nodes) {
    JsonArray fields;
    fields.emplace_back(node.feature);
    fields.emplace_back(node.threshold);
    fields.emplace_back(node.left);
    fields.emplace_back(node.right);
    fields.emplace_back(node.value);
    fields.emplace_back(node.n_samples);
    arr.emplace_back(std::move(fields));
  }
  j["nodes"] = Json(std::move(arr));
  j["importance"] =
      Json::from_doubles(std::vector<double>(num_features, 0.0));
  return j;
}

using test::walk;

/// A GBT state in GradientBoostedTrees::to_json's layout: five fields per
/// node, no sample counts.
Json gbt_state(const std::vector<std::vector<TreeNode>>& trees,
               double base_score, int num_features) {
  Json j = Json::object();
  j["params"] = GbtParams{}.to_json();
  j["fitted"] = true;
  j["base_score"] = base_score;
  j["num_features"] = num_features;
  JsonArray arr;
  for (const auto& nodes : trees) {
    JsonArray tree;
    for (const auto& node : nodes) {
      tree.emplace_back(JsonArray{node.feature, node.threshold, node.left,
                                  node.right, node.value});
    }
    arr.emplace_back(std::move(tree));
  }
  j["trees"] = Json(std::move(arr));
  j["importance"] =
      Json::from_doubles(std::vector<double>(num_features, 0.0));
  return j;
}

TEST(FlatEnsemble, DeepTreesMatchTheWalk) {
  // A complete depth-15 tree (65,535 nodes, child indices past 15 bits)
  // packs like any other tree. In a forest envelope a prediction is the
  // mean of the member trees' walks; in a GBT envelope it is base_score
  // plus the walks above, in tree order; both bit for bit.
  const auto big = complete_tree(15, 4);
  ASSERT_EQ(big.size(), 65535u);
  const auto small = complete_tree(3, 4);
  const std::size_t rows = 64, cols = 4;
  Rng rng(0xF1A7);
  std::vector<double> x(rows * cols);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const auto row = [&](std::size_t r) {
    return std::span<const double>(x.data() + r * cols, cols);
  };
  std::vector<double> batched(rows);

  Json forest = Json::object();
  forest["type"] = "random_forest";
  Json state = Json::object();
  state["params"] = ForestParams{}.to_json();
  state["num_features"] = 4;
  state["trees"] =
      Json(JsonArray{tree_to_json(big, 4), tree_to_json(small, 4)});
  forest["state"] = state;
  const auto model = model_from_json(forest);
  const auto& rf = dynamic_cast<const RandomForestRegressor&>(*model);
  ASSERT_EQ(rf.num_trees(), 2u);
  model->predict_batch(x, rows, cols, batched);
  for (std::size_t r = 0; r < rows; ++r) {
    const double mean =
        (rf.tree(0).predict_row(row(r)) + rf.tree(1).predict_row(row(r))) /
        2.0;
    EXPECT_EQ(batched[r], mean) << "forest row " << r;
  }

  Json gbt = Json::object();
  gbt["type"] = "xgboost";
  gbt["state"] = gbt_state({small, big}, 0.25, 4);
  model_from_json(gbt)->predict_batch(x, rows, cols, batched);
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(batched[r], (0.25 + walk(small, row(r))) + walk(big, row(r)))
        << "gbt row " << r;
  }

  // Child indices past 16 bits: in a complete depth-16 tree the last
  // internal level's left children sit at 65,537 and beyond.
  const auto wide = complete_tree(16, 4);
  FlatEnsemble flat;
  flat.add_tree(wide);
  flat.predict(x.data(), rows, cols, batched.data());
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(batched[r], walk(wide, row(r))) << "depth-16 row " << r;
  }
}

TEST(TreeSplit, AdjacentDoubleThresholdStillPartitions) {
  // Regression test: the midpoint of two adjacent doubles can round up
  // onto the right value; the `<=` partition would then send every row
  // left and die on an internal assert. 0x1.fffffffffffffp0 and 2.0 are
  // adjacent, and their midpoint rounds (to even) exactly onto 2.0.
  const double left = std::nextafter(2.0, 0.0);
  ASSERT_EQ((left + 2.0) / 2.0, 2.0);
  Dataset data;
  for (int rep = 0; rep < 2; ++rep) {
    data.add_row(std::vector<double>{left}, 1.0);
    data.add_row(std::vector<double>{2.0}, 5.0);
  }
  TreeParams params;
  params.min_samples_leaf = 1;
  params.min_samples_split = 2;
  DecisionTreeRegressor tree{params};
  tree.fit(data);
  EXPECT_DOUBLE_EQ(tree.predict_row(std::vector<double>{left}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict_row(std::vector<double>{2.0}), 5.0);
}

}  // namespace
}  // namespace lts::ml

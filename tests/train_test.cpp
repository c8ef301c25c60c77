// Differential tests for the training-path overhaul: the presorted-column
// split finders in DecisionTreeRegressor / RandomForestRegressor /
// GradientBoostedTrees must reproduce the pre-overhaul per-node
// gather-and-sort search bit for bit — same serialized model, same
// predictions — across dataset shapes (smooth, duplicate-heavy, skewed
// targets), fits of one model on successive windows, and the
// parallel/serial scan paths. The reference implementation lives in
// bench/train_reference.hpp, shared with bench_train_throughput so the
// suite pins exactly what the bench races.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/tree.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

#include "../bench/train_reference.hpp"

namespace lts {
namespace {

constexpr std::size_t kFeatures = 6;

enum class Shape { kSmooth, kDupHeavy, kSkewed };

// Small synthetic windows: kSmooth is continuous everywhere, kDupHeavy
// quantizes half the columns into a handful of tied values (exercising the
// equal-x boundary skips and the stable tie ordering), kSkewed drives a
// long-tailed target (exercising split selection under widely varying
// prefix sums).
ml::Dataset make_data(std::size_t rows, Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  ml::Matrix x(rows, kFeatures);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < kFeatures; ++c) {
      double v = rng.uniform();
      if (shape == Shape::kDupHeavy && c % 2 == 1) {
        v = std::floor(v * 8.0) / 8.0;
      }
      x(r, c) = v;
    }
    const auto* row = &x(r, 0);
    double target = 2.0 * row[0] + std::sin(4.0 * row[1]) +
                    3.0 * row[2] * row[3] - row[4] +
                    0.05 * (rng.uniform() - 0.5);
    if (shape == Shape::kSkewed) target = std::exp(2.5 * target);
    y[r] = target;
  }
  std::vector<std::string> names;
  for (std::size_t c = 0; c < kFeatures; ++c) {
    names.push_back(strformat("f%zu", c));
  }
  return ml::Dataset(std::move(x), std::move(y), std::move(names));
}

std::vector<Shape> all_shapes() {
  return {Shape::kSmooth, Shape::kDupHeavy, Shape::kSkewed};
}

// Bitwise prediction comparison over a probe window.
void expect_same_predictions(const ml::Regressor& opt,
                             const std::vector<double>& ref_pred,
                             const ml::Dataset& probe) {
  std::vector<double> opt_pred(probe.size(), 0.0);
  opt.predict_batch(probe.x().data(), probe.size(), kFeatures, opt_pred);
  ASSERT_EQ(opt_pred.size(), ref_pred.size());
  for (std::size_t i = 0; i < opt_pred.size(); ++i) {
    EXPECT_EQ(opt_pred[i], ref_pred[i]) << "probe row " << i;
  }
}

// ------------------------------------------------------------- tree ----

TEST(TrainDifferential, TreeMatchesReferenceAcrossShapes) {
  const ml::Dataset probe = make_data(64, Shape::kSmooth, 99);
  for (const Shape shape : all_shapes()) {
    const ml::Dataset data = make_data(300, shape, 11);
    ml::TreeParams tp;
    tp.max_depth = 8;
    tp.min_samples_leaf = 2;
    const auto ref = trainref::fit_tree(data, tp, /*seed=*/7);
    ml::DecisionTreeRegressor tree(tp, /*seed=*/7);
    tree.fit(data);
    EXPECT_EQ(tree.to_json().dump(),
              trainref::tree_model_json(ref, tp, kFeatures).dump());
    std::vector<double> ref_pred(probe.size());
    for (std::size_t i = 0; i < probe.size(); ++i) {
      ref_pred[i] = trainref::tree_value(ref, probe.row(i));
    }
    expect_same_predictions(tree, ref_pred, probe);
  }
}

TEST(TrainDifferential, FeatureSubsampledTreeMatchesReference) {
  // max_features < num_features draws a fresh random subset per node; the
  // overhaul must consume the Rng stream in exactly the reference's
  // (depth-first) order for the models to agree.
  const ml::Dataset data = make_data(400, Shape::kDupHeavy, 13);
  ml::TreeParams tp;
  tp.max_depth = 10;
  tp.max_features = 2;
  const auto ref = trainref::fit_tree(data, tp, /*seed=*/21);
  ml::DecisionTreeRegressor tree(tp, /*seed=*/21);
  tree.fit(data);
  EXPECT_EQ(tree.to_json().dump(),
            trainref::tree_model_json(ref, tp, kFeatures).dump());
}

TEST(TrainDifferential, ParallelAndSerialScansAreBitIdentical) {
  // Wide nodes fan the per-feature scan out on the pool; narrow ones stay
  // serial. Both paths must serialize to the same model as a fully serial
  // run — the hook is a scheduling knob, never a correctness one.
  const ml::Dataset data = make_data(2048, Shape::kDupHeavy, 17);
  ml::TreeParams tp;
  tp.max_depth = 7;
  ml::DecisionTreeRegressor parallel_tree(tp, /*seed=*/3);
  parallel_tree.fit(data);

  ml::set_parallel_split_scan(false);
  ml::DecisionTreeRegressor serial_tree(tp, /*seed=*/3);
  serial_tree.fit(data);
  ml::set_parallel_split_scan(true);

  EXPECT_EQ(parallel_tree.to_json().dump(), serial_tree.to_json().dump());
}

// ----------------------------------------------------------- forest ----

TEST(TrainDifferential, ForestFitsOnSuccessiveWindowsMatchFreshReference) {
  // One forest fit on three windows in turn, as a retraining loop would:
  // each fit must equal a fresh reference fit on its window, pinning the
  // shared window presort + bootstrap streaming path and showing that
  // nothing from an earlier fit (a seed salt, a kept tree) leaks in.
  const ml::Dataset probe = make_data(64, Shape::kSmooth, 98);
  ml::ForestParams fp;
  fp.n_estimators = 8;
  fp.tree.max_depth = 6;
  fp.max_features = 2;
  fp.seed = 5;

  ml::RandomForestRegressor forest(fp);
  for (std::uint64_t k = 0; k < 3; ++k) {
    const ml::Dataset w = make_data(300, Shape::kDupHeavy, 31 + k);
    trainref::RefForest ref;
    ref.params = fp;
    ref.fit(w);
    forest.fit(w);
    EXPECT_EQ(forest.to_json().dump(),
              trainref::forest_model_json(ref).dump())
        << "window " << k;
    std::vector<double> ref_pred(probe.size());
    for (std::size_t i = 0; i < probe.size(); ++i) {
      ref_pred[i] = ref.predict_one(probe.row(i));
    }
    expect_same_predictions(forest, ref_pred, probe);
  }
}

// -------------------------------------------------------------- gbt ----

TEST(TrainDifferential, GbtFitsOnSuccessiveWindowsMatchFreshReference) {
  // Row/column subsampling and early stopping consume randomness;
  // bit-identity requires the presorted path to draw and accumulate in
  // exactly the reference's order. One model fits two windows in turn, so
  // its reused training scratch must carry nothing from the first fit
  // into the second.
  const ml::Dataset probe = make_data(64, Shape::kSmooth, 97);
  for (const Shape shape : all_shapes()) {
    ml::GbtParams gp;
    gp.n_rounds = 12;
    gp.max_depth = 3;
    gp.subsample = 0.8;
    gp.colsample = 0.75;
    gp.early_stopping_rounds = 4;
    gp.validation_fraction = 0.2;
    gp.seed = 9;

    ml::GradientBoostedTrees gbt(gp);
    for (std::uint64_t k = 0; k < 2; ++k) {
      const ml::Dataset w = make_data(320, shape, 41 + k);
      trainref::RefGbt ref(gp);
      ref.fit(w);
      gbt.fit(w);
      EXPECT_EQ(gbt.to_json().dump(), ref.model_json().dump())
          << "window " << k;
      std::vector<double> ref_pred(probe.size());
      for (std::size_t i = 0; i < probe.size(); ++i) {
        ref_pred[i] = ref.predict_one(probe.row(i));
      }
      expect_same_predictions(gbt, ref_pred, probe);
    }
  }
}

TEST(TrainDifferential, GbtSplitsAdjacentDoublesWithoutDegenerating) {
  // Regression test for the threshold midpoint fix: with a = the double
  // just below 1.0 and b = 1.0, (a + b) / 2 rounds up onto b itself, so a
  // split at `x <= threshold` would send every row left and die on the
  // partition assert. The finder must snap the threshold back to a.
  const double b = 1.0;
  const double a = std::nextafter(b, 0.0);
  ASSERT_EQ((a + b) / 2.0, b);  // the degenerate rounding this test pins

  const std::size_t rows = 8;
  ml::Matrix x(rows, 1);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    x(r, 0) = r < rows / 2 ? a : b;
    y[r] = r < rows / 2 ? 0.0 : 10.0;
  }
  const ml::Dataset data(std::move(x), std::move(y), {"f0"});

  ml::GbtParams gp;
  gp.n_rounds = 1;
  gp.learning_rate = 1.0;
  gp.max_depth = 1;
  gp.min_child_weight = 0.0;
  gp.early_stopping_rounds = 0;
  ml::GradientBoostedTrees gbt(gp);
  gbt.fit(data);

  // The lone stump must split the two tied groups at the snapped
  // threshold, not collapse into a single leaf.
  const double low = gbt.predict_row(std::vector<double>{a});
  const double high = gbt.predict_row(std::vector<double>{b});
  EXPECT_LT(low, 2.5);
  EXPECT_GT(high, 7.5);

  // And the reference (old search + the same snap) agrees bit for bit.
  trainref::RefGbt ref(gp);
  ref.fit(data);
  EXPECT_EQ(gbt.to_json().dump(), ref.model_json().dump());
}

}  // namespace
}  // namespace lts

// Regression tests for parallel-training determinism.
//
// RandomForestRegressor::fit farms trees out to a thread pool; each tree's
// Rng is derived from (forest seed, tree index) rather than from any shared
// stream, so the fitted model must be byte-identical no matter how many
// workers the pool has or how their execution interleaves. These tests pin
// that property down: a pool of 1 (fully sequential), a pool of 2, and a
// pool sized to the machine must all produce the same serialized model and
// the same predictions.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/forest.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace lts::ml {
namespace {

Dataset make_synthetic(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.set_feature_names({"x0", "x1", "x2", "x3"});
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1, 1);
    const double x1 = rng.uniform(-1, 1);
    const double x2 = rng.uniform(0, 2);
    const double x3 = rng.uniform(-1, 1);
    const double y =
        3.0 * x0 - 2.0 * x1 + 0.5 * x2 + 2.0 * x0 * x1 + 0.05 * rng.normal();
    data.add_row(std::vector<double>{x0, x1, x2, x3}, y);
  }
  return data;
}

ForestParams test_params() {
  ForestParams params;
  params.n_estimators = 24;
  params.seed = 97;
  return params;
}

// Fits a fresh forest on a pool with `workers` threads and returns the
// serialized model plus its predictions on a probe set.
struct FitResult {
  std::string serialized;
  std::vector<double> predictions;
};

FitResult fit_with_pool_size(const Dataset& train, const Dataset& probe,
                             std::size_t workers) {
  ThreadPool pool(workers);
  RandomForestRegressor forest(test_params());
  forest.set_thread_pool(&pool);
  forest.fit(train);
  FitResult out;
  out.serialized = forest.to_json().dump();
  for (std::size_t i = 0; i < probe.size(); ++i) {
    out.predictions.push_back(forest.predict_row(probe.row(i)));
  }
  return out;
}

TEST(ForestDeterminism, IndependentOfThreadPoolSize) {
  const Dataset train = make_synthetic(300, 11);
  const Dataset probe = make_synthetic(40, 12);

  const FitResult sequential = fit_with_pool_size(train, probe, 1);
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t workers : {std::size_t{2}, hw}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const FitResult parallel = fit_with_pool_size(train, probe, workers);
    // Byte-identical serialization: same trees, same splits, same leaves.
    EXPECT_EQ(parallel.serialized, sequential.serialized);
    ASSERT_EQ(parallel.predictions.size(), sequential.predictions.size());
    for (std::size_t i = 0; i < sequential.predictions.size(); ++i) {
      EXPECT_EQ(parallel.predictions[i], sequential.predictions[i]);
    }
  }
}

TEST(ForestDeterminism, RepeatedFitsOnSamePoolAgree) {
  // Determinism must also hold run-to-run, not just across pool sizes:
  // re-fitting on the same (contended) pool interleaves differently each
  // time, yet the model may not change.
  const Dataset train = make_synthetic(300, 21);
  const Dataset probe = make_synthetic(20, 22);
  const FitResult first = fit_with_pool_size(train, probe, 4);
  const FitResult second = fit_with_pool_size(train, probe, 4);
  EXPECT_EQ(first.serialized, second.serialized);
  EXPECT_EQ(first.predictions, second.predictions);
}

TEST(ForestDeterminism, NullPoolRestoresGlobalAndStaysDeterministic) {
  const Dataset train = make_synthetic(200, 31);
  const Dataset probe = make_synthetic(10, 32);

  RandomForestRegressor via_global(test_params());
  via_global.fit(train);

  ThreadPool pool(3);
  RandomForestRegressor via_custom(test_params());
  via_custom.set_thread_pool(&pool);
  via_custom.set_thread_pool(nullptr);  // back to the global pool
  via_custom.fit(train);

  EXPECT_EQ(via_custom.to_json().dump(), via_global.to_json().dump());
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(via_custom.predict_row(probe.row(i)),
              via_global.predict_row(probe.row(i)));
  }
}

}  // namespace
}  // namespace lts::ml

#include "core/trainer.hpp"

#include <algorithm>

#include "core/features.hpp"
#include "ml/metrics.hpp"
#include "util/thread_pool.hpp"

namespace lts::core {

namespace {

/// Predictions for every row of `data`: predict_batch over row blocks on
/// ThreadPool::global(). A row's prediction does not depend on its block,
/// so neither the block size nor the pool size changes a bit.
std::vector<double> predict_all(const ml::Regressor& model,
                                const ml::Dataset& data) {
  constexpr std::size_t kBlockRows = 256;
  const ml::Matrix& x = data.x();
  const std::span<const double> block(x.data());
  std::vector<double> out(x.rows());
  const std::size_t blocks = (x.rows() + kBlockRows - 1) / kBlockRows;
  // lts-lint: shared-guarded(partitioned: block b reads its rows of x and writes only its rows of out)
  ThreadPool::global().parallel_for(blocks, [&](std::size_t b) {
    const std::size_t first = b * kBlockRows;
    const std::size_t rows = std::min(kBlockRows, x.rows() - first);
    model.predict_batch(block.subspan(first * x.cols(), rows * x.cols()), rows,
                        x.cols(), std::span(out).subspan(first, rows));
  });
  return out;
}

}  // namespace

ml::Dataset Trainer::dataset_from_log(const CsvTable& log, FeatureSet set) {
  ml::Dataset data;
  data.set_feature_names(FeatureConstructor::feature_names(set));
  for (std::size_t i = 0; i < log.num_rows(); ++i) {
    const TrainingRecord r = TrainingLogger::parse_row(log, i);
    const auto x = FeatureConstructor::build(r.telemetry, r.config, set);
    data.add_row(x, r.duration);
  }
  return data;
}

std::unique_ptr<ml::Regressor> Trainer::train(const std::string& model_name,
                                              const ml::Dataset& data,
                                              const Json& params) {
  LTS_REQUIRE(params.is_null() || params.is_object(),
              "Trainer::train: params must be a JSON object or null "
              "(malformed hyperparameters are not silently replaced "
              "with defaults)");
  const Json effective =
      params.is_object() ? params : default_params(model_name);
  auto model = ml::create_regressor(model_name, effective);
  model->fit(data);
  return model;
}

TrainReport Trainer::train_and_evaluate(const std::string& model_name,
                                        const ml::Dataset& data,
                                        double test_fraction,
                                        std::uint64_t seed, const Json& params,
                                        std::unique_ptr<ml::Regressor>* out) {
  // Mirror Dataset::train_test_split's feasibility check so a too-small
  // dataset (routine for early retraining windows) reports a skip instead
  // of tripping its hard LTS_REQUIRE.
  const auto test_count = static_cast<std::size_t>(std::max(
      1.0, test_fraction * static_cast<double>(data.size())));
  // Also skip when the holdout would leave fewer than two training rows —
  // no regressor can fit on one row, so that split is infeasible too.
  if (data.size() < 2 || test_count >= data.size() ||
      data.size() - test_count < 2) {
    TrainReport skip;
    skip.model_name = model_name;
    skip.train_rows = data.size();
    skip.skipped = true;
    skip.skip_reason = "dataset too small to split (" +
                       std::to_string(data.size()) + " rows)";
    return skip;
  }

  Rng rng(seed);
  auto [train_set, test_set] = data.train_test_split(test_fraction, rng);
  auto model = train(model_name, train_set, params);

  TrainReport report;
  report.model_name = model_name;
  report.train_rows = train_set.size();
  report.test_rows = test_set.size();

  const std::vector<double> train_pred = predict_all(*model, train_set);
  report.train_rmse = ml::rmse(train_set.y(), train_pred);

  const std::vector<double> test_pred = predict_all(*model, test_set);
  report.test_rmse = ml::rmse(test_set.y(), test_pred);
  report.test_mae = ml::mae(test_set.y(), test_pred);
  report.test_r2 = ml::r2_score(test_set.y(), test_pred);

  if (out != nullptr) *out = std::move(model);
  return report;
}

Json Trainer::default_params(const std::string& model_name) {
  // Values selected by the ranking-accuracy tuning study recorded in
  // EXPERIMENTS.md. All models fit in log-duration space (see
  // ml::LogTargetRegressor for why).
  Json p = Json::object();
  p["log_target"] = true;
  if (model_name == "linear") {
    p["l2"] = 1e-3;
  } else if (model_name == "random_forest") {
    // Deep unpruned trees with an aggressive per-split feature draw
    // (3 of 15): the within-scenario telemetry differences are small next
    // to the job-configuration effects, and wide draws let every tree
    // burn its splits on input_records.
    p["n_estimators"] = 800;
    p["max_features"] = 3;
    Json tree = Json::object();
    tree["max_depth"] = 40;
    tree["min_samples_leaf"] = 1;
    p["tree"] = tree;
  } else if (model_name == "xgboost") {
    p["n_rounds"] = 1500;
    p["learning_rate"] = 0.03;
    p["max_depth"] = 5;
    p["reg_lambda"] = 1.0;
    p["min_child_weight"] = 2.0;
    p["subsample"] = 0.7;
    p["colsample"] = 0.7;
    p["early_stopping_rounds"] = 80;
    p["validation_fraction"] = 0.15;
  } else if (model_name == "decision_tree") {
    p["max_depth"] = 12;
  }
  return p;
}

}  // namespace lts::core

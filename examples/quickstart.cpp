// Quickstart: the whole Learning-to-Schedule pipeline in one file.
//
//  1. Build a small training corpus by running Spark jobs on the simulated
//     geo-distributed cluster (the §5.2 workflow, shrunk to run in seconds).
//  2. Train the three supervised models on the logged telemetry.
//  3. Schedule a new job with each model and show the predicted ranking
//     next to the counterfactual truth.
//
// Run:  ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "core/scheduler.hpp"
#include "core/trainer.hpp"
#include "exp/collector.hpp"
#include "exp/envgen.hpp"
#include "exp/evaluate.hpp"
#include "exp/scenario.hpp"
#include "util/table.hpp"

int main() {
  using namespace lts;

  // ---- 1. Collect training data (tiny corpus: 8 configs x 6 nodes x 2). --
  std::printf("Collecting training data (this runs ~100 simulated jobs)...\n");
  auto matrix = exp::paper_scenario_matrix();
  matrix.resize(8);  // quickstart subset; the benches run the full matrix
  exp::CollectorOptions collect;
  collect.repeats = 2;
  collect.base_seed = 7;
  const CsvTable log = exp::collect_training_data(matrix, collect);
  std::printf("  %zu training rows collected\n", log.num_rows());

  // ---- 2. Train the paper's three models. -------------------------------
  const ml::Dataset data = core::Trainer::dataset_from_log(log);
  AsciiTable model_table({"model", "test RMSE (s)", "test R^2"});
  std::vector<exp::MethodUnderTest> models;
  for (const std::string name : {"linear", "xgboost", "random_forest"}) {
    std::unique_ptr<ml::Regressor> fitted;
    const auto report = core::Trainer::train_and_evaluate(
        name, data, /*test_fraction=*/0.25, /*seed=*/3, Json(), &fitted);
    model_table.add_row_numeric(name, {report.test_rmse, report.test_r2});
    models.emplace_back(name, std::move(fitted));
  }
  std::printf("%s", model_table.render("Holdout quality").c_str());

  // ---- 3. Schedule a fresh job and compare with the truth. ---------------
  spark::JobConfig job;
  job.app = spark::AppType::kSort;
  job.input_records = 1000000;
  job.executors = 4;

  const std::uint64_t seed = 20260705;
  exp::SimEnv env(seed, collect.env);
  env.warmup();
  const auto snapshot = env.snapshot();

  std::printf("\nScheduling a sort of %lld records:\n",
              static_cast<long long>(job.input_records));
  for (const auto& method : models) {
    core::LtsScheduler scheduler(
        core::TelemetryFetcher(env.tsdb(), env.node_names()), method.model);
    const auto decision = scheduler.schedule_from_snapshot(snapshot, job);
    std::printf("  %-14s -> %s (predicted %.1fs)\n", method.name.c_str(),
                decision.selected().c_str(),
                decision.ranking.front().predicted_duration);
    if (method.name == "random_forest") {
      // The Job Builder's manifest for the winning decision.
      std::printf("\n--- manifest (random_forest pick) ---\n%s\n",
                  scheduler.build_manifest(job, "quickstart-sort", decision)
                      .c_str());
    }
  }

  // Counterfactual truth: run the identical scenario on every node, each on
  // a fork of the warm environment the models ranked from.
  std::printf("Counterfactual durations per driver node:\n");
  for (std::size_t n = 0; n < 6; ++n) {
    exp::SimEnv cf(env);
    const auto result = cf.run_job(job, n, seed ^ 0xf00dULL);
    std::printf("  %-8s %.2fs\n", cf.node_names()[n].c_str(),
                result.duration());
  }
  return 0;
}

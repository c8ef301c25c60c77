// Table 4 reproduction: Top-1 and Top-2 accuracy of different scheduling
// approaches in selecting the fastest execution node.
//
// Protocol (paper §5.2 + §6):
//   1. Collect the training corpus: 60 job configurations x 6 target nodes
//      x 10 repetitions = 3600 samples of (pre-launch telemetry, job
//      config, completion time).
//   2. Train linear regression, XGBoost-style GBT and a random forest.
//   3. On fresh scenarios, rank nodes with each method and score Top-1 /
//      Top-2 hits against the counterfactual fastest node.
//
// Expected shape (paper): Kubernetes default 0.16/0.26 << linear 0.50/0.60
// < XGBoost 0.56/0.72 < Random Forest 0.70/0.88.
//
// Writes BENCH_table4.json: every method's Top-1/Top-2/mean regret and each
// model's holdout report (deterministic for the fixed seeds, compared
// exactly against bench/baseline/table4.json by bench/compare_baseline.py),
// plus the wall seconds of each stage under the "wall" group (reported, not
// compared).
//
// Flags: --quick shrinks the corpus for smoke runs (the report is then
//        named "table4_quick", which no baseline matches);
//        --train-log <path> writes the training CSV for reuse.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/trainer.hpp"
#include "exp/benchio.hpp"
#include "exp/collector.hpp"
#include "exp/evaluate.hpp"
#include "exp/scenario.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lts;
  const auto bench_begin = Clock::now();
  bool quick = false;
  std::string train_log_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--train-log") == 0 && i + 1 < argc) {
      train_log_path = argv[++i];
    }
  }

  // ---- 1. Training corpus (§5.2 workflow). -------------------------------
  auto matrix = exp::paper_scenario_matrix();
  exp::CollectorOptions collect;
  collect.repeats = quick ? 2 : 10;
  collect.base_seed = 12000;
  if (quick) matrix.resize(20);
  exp::BenchReport report(quick ? "table4_quick" : "table4");
  report.note("corpus", std::to_string(matrix.size()) +
                            " configs x 6 nodes x " +
                            std::to_string(collect.repeats) + " repeats");
  report.note("thread_pool", std::to_string(ThreadPool::global().size()));
  std::printf("Collecting training data: %zu configs x 6 nodes x %d reps\n",
              matrix.size(), collect.repeats);
  auto stage_begin = Clock::now();
  const CsvTable log = exp::collect_training_data(matrix, collect);
  report.add("wall", "collect_s", seconds_since(stage_begin), "s");
  report.add("corpus", "samples", static_cast<double>(log.num_rows()));
  std::printf("  %zu samples collected\n", log.num_rows());
  if (!train_log_path.empty()) {
    log.write_file(train_log_path);
    std::printf("  training log written to %s\n", train_log_path.c_str());
  }

  // ---- 2. Offline training (§3.2.3). --------------------------------------
  const ml::Dataset data = core::Trainer::dataset_from_log(log);
  std::vector<std::pair<std::string, std::shared_ptr<const ml::Regressor>>>
      models;
  AsciiTable quality({"model", "holdout RMSE (s)", "holdout R^2"});
  for (const std::string name : {"linear", "xgboost", "random_forest"}) {
    std::unique_ptr<ml::Regressor> fitted;
    stage_begin = Clock::now();
    const auto holdout = core::Trainer::train_and_evaluate(
        name, data, /*test_fraction=*/0.2, /*seed=*/5, Json(), &fitted);
    report.add("wall", "train_s." + name, seconds_since(stage_begin), "s");
    report.add(name, "train_rmse", holdout.train_rmse, "s");
    report.add(name, "test_rmse", holdout.test_rmse, "s");
    report.add(name, "test_mae", holdout.test_mae, "s");
    report.add(name, "test_r2", holdout.test_r2);
    quality.add_row_numeric(name, {holdout.test_rmse, holdout.test_r2});
    models.emplace_back(
        name, std::shared_ptr<const ml::Regressor>(std::move(fitted)));
  }
  std::printf("%s\n", quality.render("Model quality (holdout)").c_str());

  // ---- 3. Evaluation on fresh scenarios (§6). -----------------------------
  exp::EvalOptions eval;
  eval.num_scenarios = quick ? 30 : 100;
  eval.base_seed = 770000;
  stage_begin = Clock::now();
  const auto result =
      exp::evaluate_methods(models, exp::paper_scenario_matrix(), eval);
  report.add("wall", "evaluate_s", seconds_since(stage_begin), "s");

  AsciiTable table4({"Method", "Top-1", "Top-2"});
  const auto label = [](const std::string& m) -> std::string {
    if (m == "kube_default") return "Kubernetes Default";
    if (m == "random") return "Random";
    if (m == "linear") return "Linear Regression";
    if (m == "xgboost") return "XGBoost";
    if (m == "random_forest") return "Random Forest";
    return m;
  };
  for (const auto& acc : result.accuracy) {
    table4.add_row_numeric(label(acc.method), {acc.top1, acc.top2}, 3);
    report.add(acc.method, "top1", acc.top1);
    report.add(acc.method, "top2", acc.top2);
    report.add(acc.method, "mean_regret", acc.mean_regret, "s");
  }
  std::printf("%s", table4
                        .render("Table 4: Top-1/Top-2 accuracy in selecting "
                                "the fastest execution node (" +
                                std::to_string(eval.num_scenarios) +
                                " scenarios)")
                        .c_str());
  std::printf(
      "\nPaper reports: default 0.160/0.260, linear 0.500/0.600, "
      "xgboost 0.560/0.720, random forest 0.700/0.880.\n");

  report.add("wall", "total_s", seconds_since(bench_begin), "s");
  report.write("BENCH_table4.json");
  std::printf("report written to BENCH_table4.json\n");
  return 0;
}

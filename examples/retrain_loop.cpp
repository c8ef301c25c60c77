// Retraining loop: the paper's deployability story (§2.4, §8) end to end.
//
// Simulates the life of a production deployment: an initial model trained
// on a small corpus, then periodic retraining as the logger accumulates
// more executions. After each round the example reports holdout RMSE and
// the Top-1 accuracy on fresh scenarios, plus how long retraining took —
// showing that retraining "does not require system downtime or large-scale
// infrastructure" (the model is a file; swap it atomically).
#include <chrono>
#include <cstdio>
#include <memory>

#include "core/scheduler.hpp"
#include "core/trainer.hpp"
#include "exp/collector.hpp"
#include "exp/evaluate.hpp"
#include "exp/scenario.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int main() {
  using namespace lts;
  const auto matrix = exp::paper_scenario_matrix();

  AsciiTable table({"round", "corpus rows", "holdout RMSE (s)",
                    "Top-1", "Top-2", "retrain (ms)"});

  core::TrainingLogger accumulated;
  int round = 0;
  for (const int repeats : {1, 2, 4}) {
    ++round;
    // Collect another tranche of executions (fresh seeds per round) and
    // append to the running corpus, exactly as the Logger would in
    // production.
    exp::CollectorOptions collect;
    collect.repeats = repeats;
    collect.base_seed = 1000ULL * static_cast<std::uint64_t>(round);
    const CsvTable tranche = exp::collect_training_data(matrix, collect);
    for (std::size_t i = 0; i < tranche.num_rows(); ++i) {
      accumulated.log(core::TrainingLogger::parse_row(tranche, i));
    }

    const ml::Dataset data =
        core::Trainer::dataset_from_log(accumulated.table());
    const auto start = std::chrono::steady_clock::now();
    std::unique_ptr<ml::Regressor> fitted;
    const auto report = core::Trainer::train_and_evaluate(
        "random_forest", data, 0.2, 7, Json(), &fitted);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);

    // Accuracy on fresh scenarios with the freshly trained model.
    std::vector<exp::MethodUnderTest> models;
    models.emplace_back("random_forest", std::move(fitted));
    exp::EvalOptions eval;
    eval.num_scenarios = 40;
    eval.base_seed = 420000;
    eval.truth_repeats = 1;
    const auto result = exp::evaluate_methods(models, matrix, eval);
    const auto& acc = result.by_method("random_forest");

    table.add_row({std::to_string(round),
                   std::to_string(accumulated.size()),
                   strformat("%.2f", report.test_rmse),
                   strformat("%.3f", acc.top1), strformat("%.3f", acc.top2),
                   std::to_string(elapsed.count())});
  }
  std::printf("%s", table.render("Retraining loop").c_str());

  // Deployment artifact: persist and reload the final model.
  const ml::Dataset final_data =
      core::Trainer::dataset_from_log(accumulated.table());
  const auto model = core::Trainer::train("random_forest", final_data);
  ml::save_model(*model, "/tmp/lts_model.json");
  const auto reloaded = ml::load_model("/tmp/lts_model.json");
  std::printf("\nmodel saved to /tmp/lts_model.json and reloaded (%s, "
              "fitted=%s)\n",
              reloaded->name().c_str(),
              reloaded->is_fitted() ? "true" : "false");
  return 0;
}

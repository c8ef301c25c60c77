// §2.3 made measurable: supervised learning vs online RL at equal
// execution budgets.
//
// The paper chooses supervised learning because RL "requires a huge number
// of trial runs to converge". This bench executes that comparison: an
// epsilon-greedy contextual bandit learns placement online (one job per
// episode, learning only from its own choices), while the paper's offline
// models train on batch corpora truncated to the same number of executed
// jobs. At each budget one evaluate_methods call scores the bandit's
// current value model and both offline models with greedy Top-1/Top-2 on
// the same held-out scenarios.
#include <cstdio>
#include <memory>

#include "core/bandit.hpp"
#include "core/trainer.hpp"
#include "exp/collector.hpp"
#include "exp/evaluate.hpp"
#include "exp/scenario.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int main() {
  using namespace lts;
  const auto matrix = exp::paper_scenario_matrix();
  const int kEvalScenarios = 40;
  const std::uint64_t kEvalSeed = 992000;
  const std::vector<int> checkpoints = {60, 120, 240, 480};

  // ---- Online bandit: one environment + one executed job per episode. ----
  core::BanditScheduler bandit(4242);
  AsciiTable table({"executed jobs", "bandit Top-1", "bandit Top-2",
                    "SL linear Top-1", "SL linear Top-2", "SL forest Top-1",
                    "SL forest Top-2"});
  Rng episode_rng(31337);
  int episodes_done = 0;

  // ---- Offline SL corpora, truncated to matching budgets. ---------------
  exp::CollectorOptions collect;
  collect.repeats = 2;  // 60 x 6 x 2 = 720 >= max checkpoint
  collect.base_seed = 12000;
  std::printf("Collecting the offline corpus once (720 samples)...\n");
  const CsvTable full_log = exp::collect_training_data(matrix, collect);
  const ml::Dataset full_data = core::Trainer::dataset_from_log(full_log);

  for (const int budget : checkpoints) {
    // Advance the bandit to `budget` executed jobs.
    while (episodes_done < budget) {
      const std::uint64_t seed =
          500000ULL + 13ULL * static_cast<std::uint64_t>(episodes_done);
      const auto& scenario = exp::sample_scenario(matrix, episode_rng);
      exp::SimEnv env(seed);
      env.warmup();
      const auto snapshot = env.snapshot();
      const std::size_t node = bandit.pick(snapshot, scenario.config);
      const auto result =
          env.run_job(scenario.config, node, seed ^ 0xBEEF);
      bandit.observe(snapshot, scenario.config, node, result.duration());
      ++episodes_done;
    }

    // SL models on the first `budget` rows of the batch corpus.
    std::vector<std::size_t> head(static_cast<std::size_t>(budget));
    for (std::size_t i = 0; i < head.size(); ++i) head[i] = i;
    const ml::Dataset truncated = full_data.select(head);
    const auto linear = std::shared_ptr<const ml::Regressor>(
        core::Trainer::train("linear", truncated));
    const auto forest = std::shared_ptr<const ml::Regressor>(
        core::Trainer::train("random_forest", truncated));

    exp::EvalOptions eval;
    eval.num_scenarios = kEvalScenarios;
    eval.base_seed = kEvalSeed;
    eval.truth_repeats = 1;
    std::vector<exp::MethodUnderTest> methods;
    methods.push_back({"bandit", bandit.value_model(), core::kBanditFeatures});
    methods.push_back({"linear", linear, core::FeatureSet::kTable1});
    methods.push_back({"forest", forest, core::FeatureSet::kTable1});
    const auto result = exp::evaluate_methods(methods, matrix, eval);
    std::vector<double> row;
    for (const auto& method : methods) {
      row.push_back(result.by_method(method.name).top1);
      row.push_back(result.by_method(method.name).top2);
    }
    table.add_row_numeric(strformat("%d", budget), row, 3);
    std::printf("  budget %d done (bandit epsilon now %.2f)\n", budget,
                bandit.current_epsilon());
  }
  std::printf("%s", table
                        .render("Sample efficiency: online bandit vs "
                                "offline supervised (greedy Top-k)")
                        .c_str());
  std::printf(
      "\nNote: the bandit explores on the live cluster (its exploration "
      "jobs run\nslower), while the SL corpus is collected by the paper's "
      "batch sweep.\n");
  return 0;
}

// End-to-end integration tests: the full paper pipeline at reduced scale —
// collect telemetry corpus -> train offline -> schedule online -> execute
// on the simulated cluster -> verify the decision quality and artifacts.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "core/scheduler.hpp"
#include "core/trainer.hpp"
#include "exp/collector.hpp"
#include "exp/evaluate.hpp"
#include "exp/scenario.hpp"
#include "k8s/manifest.hpp"

namespace lts {
namespace {

// Shared corpus: the slowest step. Under ctest every test runs in its own
// process, so the corpus is collected once per ctest run (`lts collect
// --configs 16 --repeats 3 --seed 505`, see tests/CMakeLists.txt) and read
// from LTS_INTEGRATION_CORPUS; without that variable the suite collects the
// same corpus in-process.
class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (const char* path = std::getenv("LTS_INTEGRATION_CORPUS")) {
      log_ = new CsvTable(CsvTable::read_file(path));
    } else {
      auto matrix = exp::paper_scenario_matrix();
      matrix.resize(16);
      exp::CollectorOptions options;
      options.repeats = 3;
      options.base_seed = 505;
      log_ = new CsvTable(exp::collect_training_data(matrix, options));
    }
    data_ = new ml::Dataset(core::Trainer::dataset_from_log(*log_));
  }
  static void TearDownTestSuite() {
    delete log_;
    delete data_;
    log_ = nullptr;
    data_ = nullptr;
  }

  static CsvTable* log_;
  static ml::Dataset* data_;
};

CsvTable* PipelineFixture::log_ = nullptr;
ml::Dataset* PipelineFixture::data_ = nullptr;

TEST_F(PipelineFixture, CorpusHasExpectedShape) {
  EXPECT_EQ(log_->num_rows(), 16u * 6u * 3u);
  EXPECT_EQ(data_->num_features(),
            core::FeatureConstructor::num_features());
}

TEST_F(PipelineFixture, ModelsLearnSignal) {
  for (const std::string name : {"linear", "xgboost", "random_forest"}) {
    const auto report =
        core::Trainer::train_and_evaluate(name, *data_, 0.25, 11);
    EXPECT_GT(report.test_r2, 0.3) << name;  // clearly better than mean
  }
}

TEST_F(PipelineFixture, SupervisedBeatsRandomAndKube) {
  const auto matrix = exp::paper_scenario_matrix();
  std::vector<exp::MethodUnderTest> models;
  models.emplace_back("random_forest",
                      core::Trainer::train("random_forest", *data_));
  exp::EvalOptions eval;
  eval.num_scenarios = 25;
  eval.truth_repeats = 1;
  eval.base_seed = 123456;
  const auto result = exp::evaluate_methods(models, matrix, eval);
  const auto& rf = result.by_method("random_forest");
  const auto& random = result.by_method("random");
  const auto& kube = result.by_method("kube_default");
  // The paper's headline shape at miniature scale: the supervised model
  // clearly beats both blind baselines.
  EXPECT_GT(rf.top1, random.top1);
  EXPECT_GT(rf.top2, kube.top2);
  EXPECT_LT(rf.mean_regret, random.mean_regret);
}

TEST_F(PipelineFixture, EndToEndScheduleAndExecute) {
  const auto model = std::shared_ptr<const ml::Regressor>(
      core::Trainer::train("xgboost", *data_));
  exp::SimEnv env(2026);
  env.warmup();

  spark::JobConfig job;
  job.app = spark::AppType::kGroupBy;
  job.input_records = 800000;
  job.executors = 4;

  core::LtsScheduler scheduler(
      core::TelemetryFetcher(env.tsdb(), env.node_names()), model);
  const auto decision = scheduler.schedule(job, env.engine().now());
  ASSERT_EQ(decision.ranking.size(), 6u);

  // The Job Builder output pins exactly the selected node...
  const auto yaml = scheduler.build_manifest(job, "e2e-job", decision);
  const auto pins = k8s::parse_manifest_node_affinity(yaml);
  ASSERT_EQ(pins.size(), 1u);
  EXPECT_EQ(pins[0], decision.selected());

  // ...and the job actually runs there.
  const auto result = env.run_job(
      job, env.cluster().node_index(decision.selected()), 99);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.driver_node, decision.selected());
}

TEST_F(PipelineFixture, ModelSurvivesDiskRoundTripInsideScheduler) {
  const auto model = core::Trainer::train("random_forest", *data_);
  ml::save_model(*model, "/tmp/lts_integration_model.json");
  const auto restored = std::shared_ptr<const ml::Regressor>(
      ml::load_model("/tmp/lts_integration_model.json"));

  exp::SimEnv env(31);
  env.warmup();
  spark::JobConfig job;
  job.executors = 3;
  core::LtsScheduler original(
      core::TelemetryFetcher(env.tsdb(), env.node_names()),
      std::shared_ptr<const ml::Regressor>(std::move(
          const_cast<std::unique_ptr<ml::Regressor>&>(model))));
  core::LtsScheduler reloaded(
      core::TelemetryFetcher(env.tsdb(), env.node_names()), restored);
  const auto a = original.schedule(job, env.engine().now());
  const auto b = reloaded.schedule(job, env.engine().now());
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].node, b.ranking[i].node);
    EXPECT_DOUBLE_EQ(a.ranking[i].predicted_duration,
                     b.ranking[i].predicted_duration);
  }
}

TEST_F(PipelineFixture, TrainingLogFileRoundTrip) {
  log_->write_file("/tmp/lts_integration_log.csv");
  const CsvTable reread = CsvTable::read_file("/tmp/lts_integration_log.csv");
  EXPECT_EQ(reread.num_rows(), log_->num_rows());
  const auto data = core::Trainer::dataset_from_log(reread);
  ASSERT_EQ(data.size(), data_->size());
  for (std::size_t i = 0; i < data.size(); i += 37) {
    EXPECT_NEAR(data.target(i), data_->target(i), 1e-6);
  }
}

TEST(Integration, HeuristicsSitBetweenBlindAndLearned) {
  // least_rtt / least_cpu use one telemetry signal each; on network-heavy
  // workloads least_rtt should at least beat random.
  auto matrix = exp::paper_scenario_matrix();
  exp::EvalOptions eval;
  eval.num_scenarios = 30;
  eval.truth_repeats = 1;
  eval.base_seed = 97531;
  eval.heuristics = {"least_rtt", "least_cpu"};
  const auto result =
      exp::evaluate_methods(std::vector<exp::MethodUnderTest>{}, matrix, eval);
  EXPECT_GT(result.by_method("least_rtt").top2,
            result.by_method("random").top2);
}

}  // namespace
}  // namespace lts

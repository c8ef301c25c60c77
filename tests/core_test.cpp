// Unit tests for the paper's scheduler core: feature construction, fetcher,
// decision module, job builder, logger, trainer, and the assembled
// LtsScheduler pipeline.
#include <gtest/gtest.h>

#include <sstream>

#include "core/decision.hpp"
#include "core/features.hpp"
#include "core/fetcher.hpp"
#include "core/job_builder.hpp"
#include "core/logger.hpp"
#include "core/scheduler.hpp"
#include "core/trainer.hpp"
#include "k8s/manifest.hpp"
#include "ml/metrics.hpp"

namespace lts::core {
namespace {

telemetry::NodeTelemetry sample_telemetry(const std::string& name) {
  telemetry::NodeTelemetry t;
  t.node = name;
  t.rtt_mean = 0.032;
  t.rtt_max = 0.070;
  t.rtt_std = 0.020;
  t.tx_rate = 50e6;
  t.rx_rate = 20e6;
  t.cpu_load = 1.5;
  t.mem_available = 6.0 * 1024 * 1024 * 1024;
  return t;
}

spark::JobConfig sample_config() {
  spark::JobConfig config;
  config.app = spark::AppType::kJoin;
  config.input_records = 750000;
  config.executors = 4;
  config.executor_memory = 2.0 * 1024 * 1024 * 1024;
  return config;
}

// ------------------------------------------------------------- features ----

TEST(Features, SchemaMatchesTable1) {
  const auto& names = FeatureConstructor::feature_names();
  EXPECT_EQ(names.size(), FeatureConstructor::num_features());
  // Network, node, and job groups must all be present (Table 1).
  EXPECT_NE(std::find(names.begin(), names.end(), "rtt_mean_ms"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "tx_rate_mbps"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "cpu_load"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "mem_available_gib"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "app_sort"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "input_records"),
            names.end());
}

TEST(Features, VectorMatchesSchemaAndUnits) {
  const auto x = FeatureConstructor::build(sample_telemetry("n"),
                                           sample_config());
  const auto& names = FeatureConstructor::feature_names();
  ASSERT_EQ(x.size(), names.size());
  auto at = [&](const std::string& name) {
    return x[static_cast<std::size_t>(
        std::find(names.begin(), names.end(), name) - names.begin())];
  };
  EXPECT_DOUBLE_EQ(at("rtt_mean_ms"), 32.0);
  EXPECT_DOUBLE_EQ(at("tx_rate_mbps"), 50.0);
  EXPECT_DOUBLE_EQ(at("mem_available_gib"), 6.0);
  EXPECT_DOUBLE_EQ(at("cpu_load"), 1.5);
  EXPECT_DOUBLE_EQ(at("input_records"), 750000.0);
  EXPECT_DOUBLE_EQ(at("executors"), 4.0);
}

TEST(Features, AppTypeOneHotExclusive) {
  const auto& names = FeatureConstructor::feature_names();
  for (const auto app : spark::kAllAppTypes) {
    auto config = sample_config();
    config.app = app;
    const auto x = FeatureConstructor::build(sample_telemetry("n"), config);
    double total = 0.0;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i].rfind("app_", 0) == 0) total += x[i];
    }
    EXPECT_DOUBLE_EQ(total, 1.0) << spark::to_string(app);
  }
}

TEST(Features, BuildAllKeepsNodeOrder) {
  telemetry::ClusterSnapshot snapshot;
  snapshot.nodes = {sample_telemetry("a"), sample_telemetry("b")};
  snapshot.nodes[1].cpu_load = 9.0;
  const auto all = FeatureConstructor::build_all(snapshot, sample_config());
  ASSERT_EQ(all.size(), 2u);
  EXPECT_NE(all[0], all[1]);
}

// ------------------------------------------------------------- decision ----

TEST(Decision, RanksAscendingByPrediction) {
  const auto decision = DecisionModule::rank({
      {"slow", 30.0}, {"fast", 10.0}, {"mid", 20.0}});
  EXPECT_EQ(decision.selected(), "fast");
  EXPECT_EQ(decision.ranking[1].node, "mid");
  EXPECT_EQ(decision.ranking[2].node, "slow");
}

TEST(Decision, TiesBrokenByName) {
  const auto decision = DecisionModule::rank({
      {"zeta", 10.0}, {"alpha", 10.0}});
  EXPECT_EQ(decision.selected(), "alpha");
}

TEST(Decision, EmptyRejected) {
  EXPECT_THROW(DecisionModule::rank({}), Error);
  Decision empty;
  EXPECT_THROW(empty.selected(), Error);
}

// ----------------------------------------------------------- job builder ----

TEST(JobBuilder, ManifestPinsSelectedNode) {
  const std::string yaml =
      JobBuilder::render_manifest(sample_config(), "job-1", "node-5");
  const auto pins = k8s::parse_manifest_node_affinity(yaml);
  ASSERT_EQ(pins.size(), 1u);
  EXPECT_EQ(pins[0], "node-5");
  EXPECT_NE(yaml.find("join"), std::string::npos);
}

TEST(JobBuilder, DriverPodCarriesAffinityExecutorsDoNot) {
  const auto driver = JobBuilder::driver_pod(sample_config(), "job-1", "n2");
  ASSERT_TRUE(driver.node_affinity.has_value());
  EXPECT_TRUE(driver.node_affinity->matches("n2"));
  const auto exec = JobBuilder::executor_pod(sample_config(), "job-1", 0);
  EXPECT_FALSE(exec.node_affinity.has_value());
  EXPECT_EQ(exec.name, "job-1-exec-1");
  EXPECT_DOUBLE_EQ(exec.requests.cpu, sample_config().executor_cores);
}

TEST(JobBuilder, ManifestEncodesShufflePartitions) {
  auto config = sample_config();
  config.shuffle_partitions = 24;
  const std::string yaml = JobBuilder::render_manifest(config, "j", "n");
  EXPECT_NE(yaml.find("\"spark.sql.shuffle.partitions\": \"24\""),
            std::string::npos);
}

// --------------------------------------------------------------- logger ----

TEST(Logger, RoundTripsRecords) {
  TrainingLogger logger;
  TrainingRecord record;
  record.scenario_id = "sort-01";
  record.node = "node-2";
  record.snapshot_time = 40.0;
  record.telemetry = sample_telemetry("node-2");
  record.config = sample_config();
  record.duration = 17.25;
  record.shuffle_bytes = 123456789.0;
  record.max_spill_penalty = 1.5;
  logger.log(record);
  EXPECT_EQ(logger.size(), 1u);

  const auto parsed = TrainingLogger::parse_row(logger.table(), 0);
  EXPECT_EQ(parsed.scenario_id, "sort-01");
  EXPECT_EQ(parsed.node, "node-2");
  EXPECT_NEAR(parsed.telemetry.rtt_mean, record.telemetry.rtt_mean, 1e-9);
  // %.9g formatting keeps ~9 significant digits; byte counts round.
  EXPECT_NEAR(parsed.telemetry.mem_available,
              record.telemetry.mem_available, 16.0);
  EXPECT_EQ(parsed.config.app, spark::AppType::kJoin);
  EXPECT_EQ(parsed.config.input_records, 750000);
  EXPECT_NEAR(parsed.duration, 17.25, 1e-9);
  EXPECT_NEAR(parsed.max_spill_penalty, 1.5, 1e-9);
}

TEST(Logger, CsvSurvivesSerialization) {
  TrainingLogger logger;
  TrainingRecord record;
  record.scenario_id = "join-02";
  record.node = "node-1";
  record.telemetry = sample_telemetry("node-1");
  record.config = sample_config();
  record.duration = 9.5;
  logger.log(record);
  std::ostringstream out;
  logger.table().write(out);
  std::istringstream in(out.str());
  const CsvTable reread = CsvTable::read(in);
  const auto parsed = TrainingLogger::parse_row(reread, 0);
  EXPECT_NEAR(parsed.duration, 9.5, 1e-9);
}

TEST(Logger, RejectsIncompleteRun) {
  TrainingLogger logger;
  telemetry::ClusterSnapshot snapshot;
  snapshot.nodes = {sample_telemetry("node-1")};
  spark::AppResult result;  // completed == false
  EXPECT_THROW(logger.log_run("x", snapshot, sample_config(), result),
               Error);
}

// -------------------------------------------------------------- trainer ----

ml::Dataset synthetic_training_dataset(std::size_t n, std::uint64_t seed) {
  // Build a corpus through the logger so the schema path is exercised.
  Rng rng(seed);
  TrainingLogger logger;
  for (std::size_t i = 0; i < n; ++i) {
    TrainingRecord r;
    r.scenario_id = "s";
    r.node = "node-1";
    r.telemetry = sample_telemetry("node-1");
    r.telemetry.cpu_load = rng.uniform(0.0, 4.0);
    r.telemetry.tx_rate = rng.uniform(0.0, 200e6);
    r.config = sample_config();
    r.config.input_records = 100000 + 100000 * (i % 10);
    // Duration with learnable structure.
    r.duration = 5.0 + r.config.input_records / 2e5 +
                 0.8 * r.telemetry.cpu_load +
                 r.telemetry.tx_rate / 100e6 + 0.05 * rng.normal();
    logger.log(r);
  }
  return Trainer::dataset_from_log(logger.table());
}

TEST(Trainer, DatasetFromLogHasSchema) {
  const auto data = synthetic_training_dataset(50, 1);
  EXPECT_EQ(data.size(), 50u);
  EXPECT_EQ(data.num_features(), FeatureConstructor::num_features());
  EXPECT_EQ(data.feature_names(), FeatureConstructor::feature_names());
}

TEST(Trainer, TrainsEveryRegisteredFamily) {
  const auto data = synthetic_training_dataset(300, 2);
  for (const std::string name : {"linear", "xgboost", "random_forest"}) {
    const auto model = Trainer::train(name, data);
    ASSERT_TRUE(model->is_fitted()) << name;
    const double pred = model->predict_row(data.row(0));
    EXPECT_GT(pred, 0.0) << name;
    EXPECT_LT(pred, 100.0) << name;
  }
}

TEST(Trainer, RejectsNonObjectParams) {
  const auto data = synthetic_training_dataset(30, 9);
  // Null means "use defaults"; an object is taken as-is. Anything else is
  // a malformed config that must fail loudly, not silently fall back.
  EXPECT_NO_THROW(Trainer::train("linear", data, Json()));
  Json params = Json::object();
  params["l2"] = 0.5;
  EXPECT_NO_THROW(Trainer::train("linear", data, params));
  EXPECT_THROW(Trainer::train("linear", data, Json("l2=0.5")), Error);
  EXPECT_THROW(Trainer::train("linear", data, Json(3.0)), Error);
  EXPECT_THROW(Trainer::train("linear", data, Json::array()), Error);
  EXPECT_THROW(
      Trainer::train_and_evaluate("linear", data, 0.2, 1, Json(true)),
      Error);
}

TEST(Trainer, TooFewRowsReportsSkipInsteadOfThrowing) {
  std::unique_ptr<ml::Regressor> out;
  const auto one_row = synthetic_training_dataset(1, 10);
  const auto report =
      Trainer::train_and_evaluate("linear", one_row, 0.2, 1, Json(), &out);
  EXPECT_TRUE(report.skipped);
  EXPECT_EQ(report.train_rows, 1u);
  EXPECT_NE(report.skip_reason.find("too small"), std::string::npos);
  EXPECT_EQ(out, nullptr);  // a skipped evaluation must not touch *out

  // An extreme test fraction makes the holdout swallow the dataset; that
  // is the same infeasible split, reported the same way.
  const auto few = synthetic_training_dataset(5, 11);
  EXPECT_TRUE(Trainer::train_and_evaluate("linear", few, 0.99, 1).skipped);

  // A healthy dataset is unaffected.
  const auto ok = synthetic_training_dataset(50, 12);
  EXPECT_FALSE(Trainer::train_and_evaluate("linear", ok, 0.2, 1).skipped);
}

TEST(Trainer, EvaluationReportsSaneMetrics) {
  // XGBoost here: the synthetic corpus has 12 constant columns, which the
  // random-forest default's narrow per-split feature draw (tuned for the
  // real telemetry corpus) handles poorly.
  const auto data = synthetic_training_dataset(500, 3);
  const auto report = Trainer::train_and_evaluate("xgboost", data, 0.2, 1);
  EXPECT_EQ(report.train_rows + report.test_rows, 500u);
  EXPECT_GT(report.test_r2, 0.8);
  EXPECT_LT(report.test_rmse, 1.0);
  EXPECT_LE(report.train_rmse, report.test_rmse * 1.5);
}

TEST(Trainer, BatchedHoldoutScoringMatchesPredictRowOracle) {
  // train_and_evaluate scores with predict_batch in row blocks on the
  // thread pool; the oracle is the scalar loop it replaced, one predict_row
  // per row. Every report field must match bit for bit. 600 rows puts the
  // 480 training rows across more than one block.
  const auto data = synthetic_training_dataset(600, 21);
  for (const std::string name : {"linear", "xgboost", "random_forest"}) {
    Json params = Trainer::default_params(name);
    if (name == "xgboost") params["n_rounds"] = 200;
    if (name == "random_forest") params["n_estimators"] = 60;
    std::unique_ptr<ml::Regressor> fitted;
    const auto report =
        Trainer::train_and_evaluate(name, data, 0.2, 13, params, &fitted);

    Rng rng(13);
    const auto [train_set, test_set] = data.train_test_split(0.2, rng);
    const auto model = Trainer::train(name, train_set, params);
    const auto scalar = [&](const ml::Dataset& rows) {
      std::vector<double> pred;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        pred.push_back(model->predict_row(rows.row(i)));
      }
      return pred;
    };
    const auto train_pred = scalar(train_set);
    const auto test_pred = scalar(test_set);

    EXPECT_FALSE(report.skipped) << name;
    EXPECT_EQ(report.model_name, name);
    EXPECT_EQ(report.train_rows, train_set.size()) << name;
    EXPECT_EQ(report.test_rows, test_set.size()) << name;
    EXPECT_EQ(report.train_rmse, ml::rmse(train_set.y(), train_pred)) << name;
    EXPECT_EQ(report.test_rmse, ml::rmse(test_set.y(), test_pred)) << name;
    EXPECT_EQ(report.test_mae, ml::mae(test_set.y(), test_pred)) << name;
    EXPECT_EQ(report.test_r2, ml::r2_score(test_set.y(), test_pred)) << name;
    ASSERT_NE(fitted, nullptr) << name;
    EXPECT_EQ(ml::model_to_json(*fitted).dump(),
              ml::model_to_json(*model).dump())
        << name;
  }
}

TEST(Trainer, DefaultParamsUseLogTarget) {
  for (const std::string name : {"linear", "xgboost", "random_forest"}) {
    const Json p = Trainer::default_params(name);
    EXPECT_TRUE(p.at("log_target").as_bool()) << name;
  }
}

// ------------------------------------------------------------- scheduler ----

TEST(Scheduler, PipelineRanksByPredictedDuration) {
  // Model: duration = cpu_load (perfectly learnable); the scheduler must
  // therefore rank by cpu_load ascending.
  Rng rng(4);
  ml::Dataset data;
  data.set_feature_names(FeatureConstructor::feature_names());
  for (int i = 0; i < 400; ++i) {
    auto t = sample_telemetry("x");
    t.cpu_load = rng.uniform(0.0, 6.0);
    const auto x = FeatureConstructor::build(t, sample_config());
    data.add_row(x, 1.0 + t.cpu_load);
  }
  auto model = std::shared_ptr<const ml::Regressor>(
      Trainer::train("random_forest", data));

  telemetry::Tsdb tsdb;  // unused by schedule_from_snapshot
  telemetry::ClusterSnapshot snapshot;
  snapshot.nodes = {sample_telemetry("busy"), sample_telemetry("idle"),
                    sample_telemetry("mid")};
  snapshot.nodes[0].cpu_load = 5.0;
  snapshot.nodes[1].cpu_load = 0.2;
  snapshot.nodes[2].cpu_load = 2.5;

  LtsScheduler scheduler(
      TelemetryFetcher(tsdb, {"busy", "idle", "mid"}), model);
  const auto decision =
      scheduler.schedule_from_snapshot(snapshot, sample_config());
  EXPECT_EQ(decision.selected(), "idle");
  EXPECT_EQ(decision.ranking[1].node, "mid");
  EXPECT_EQ(decision.ranking[2].node, "busy");
  // Manifest pins the winner.
  const auto yaml =
      scheduler.build_manifest(sample_config(), "job-7", decision);
  EXPECT_EQ(k8s::parse_manifest_node_affinity(yaml)[0], "idle");
}

TEST(Scheduler, RejectsUnfittedModel) {
  telemetry::Tsdb tsdb;
  auto unfitted = std::shared_ptr<const ml::Regressor>(
      ml::create_regressor("linear"));
  EXPECT_THROW(
      LtsScheduler(TelemetryFetcher(tsdb, {"a"}), unfitted), Error);
}

TEST(Fetcher, RequiresNodes) {
  telemetry::Tsdb tsdb;
  EXPECT_THROW(TelemetryFetcher(tsdb, {}), Error);
}

}  // namespace
}  // namespace lts::core

// ------------------------------------------------------- risk aversion ----

namespace lts::core {
namespace {

TEST(Scheduler, RiskAversionPenalizesUncertainNodes) {
  // A hand-built ensemble-like model: node with cpu_load > 3 gets a
  // slightly lower mean but a huge spread. k = 0 picks it; k = 1 avoids it.
  class FakeModel : public ml::Regressor {
   public:
    void fit(const ml::Dataset&) override {}
    bool is_fitted() const override { return true; }
    std::string name() const override { return "fake"; }
    Json to_json() const override { return Json::object(); }
    void from_json(const Json&) override {}
    void predict_batch(std::span<const double> x, std::size_t rows,
                       std::size_t cols,
                       std::span<double> out) const override {
      for (std::size_t r = 0; r < rows; ++r) {
        out[r] = predict_with_uncertainty(x.subspan(r * cols, cols)).mean;
      }
    }
    ml::Prediction predict_with_uncertainty(
        std::span<const double> x) const override {
      const double cpu = x[5];  // cpu_load slot in the Table-1 layout
      if (cpu > 3.0) return {9.0, 5.0};  // fast on average, very unsure
      return {10.0, 0.1};
    }
  };
  auto model = std::make_shared<const FakeModel>();

  telemetry::Tsdb tsdb;
  telemetry::ClusterSnapshot snapshot;
  telemetry::NodeTelemetry risky;
  risky.node = "risky";
  risky.cpu_load = 5.0;
  telemetry::NodeTelemetry safe;
  safe.node = "safe";
  safe.cpu_load = 1.0;
  snapshot.nodes = {risky, safe};
  spark::JobConfig job;

  LtsScheduler mean_policy(TelemetryFetcher(tsdb, {"risky", "safe"}), model,
                           FeatureSet::kTable1, 0.0);
  EXPECT_EQ(mean_policy.schedule_from_snapshot(snapshot, job).selected(),
            "risky");
  LtsScheduler pessimist(TelemetryFetcher(tsdb, {"risky", "safe"}), model,
                         FeatureSet::kTable1, 1.0);
  EXPECT_EQ(pessimist.schedule_from_snapshot(snapshot, job).selected(),
            "safe");
}

TEST(Scheduler, NegativeRiskAversionRejected) {
  telemetry::Tsdb tsdb;
  auto model = std::shared_ptr<const ml::Regressor>(
      ml::create_regressor("linear"));
  EXPECT_THROW(LtsScheduler(TelemetryFetcher(tsdb, {"a"}), model,
                            FeatureSet::kTable1, -1.0),
               Error);
}

}  // namespace
}  // namespace lts::core

// --------------------------------------------------------------- bandit ----

#include "core/bandit.hpp"

namespace lts::core {
namespace {

telemetry::ClusterSnapshot two_node_snapshot(double load_a, double load_b) {
  telemetry::ClusterSnapshot snapshot;
  telemetry::NodeTelemetry a, b;
  a.node = "a";
  a.cpu_load = load_a;
  b.node = "b";
  b.cpu_load = load_b;
  snapshot.nodes = {a, b};
  return snapshot;
}

TEST(Bandit, ExploresUntilModelExists) {
  BanditScheduler bandit(1);
  EXPECT_FALSE(bandit.value_model_ready());
  const auto snapshot = two_node_snapshot(1.0, 2.0);
  spark::JobConfig job;
  // Without a model every pick is exploration, but always in range.
  for (int i = 0; i < 20; ++i) {
    EXPECT_LT(bandit.pick(snapshot, job), 2u);
  }
  EXPECT_THROW(bandit.pick_greedy(snapshot, job), Error);
}

TEST(Bandit, LearnsLoadAvoidanceFromItsOwnChoices) {
  BanditScheduler bandit(7);
  spark::JobConfig job;
  Rng rng(3);
  // Reward structure: duration = 5 + 2 * cpu_load of the chosen node.
  for (int i = 0; i < 80; ++i) {
    const auto snapshot =
        two_node_snapshot(rng.uniform(0, 4), rng.uniform(0, 4));
    const std::size_t choice = bandit.pick(snapshot, job);
    const double duration =
        5.0 + 2.0 * snapshot.nodes[choice].cpu_load;
    bandit.observe(snapshot, job, choice, duration);
  }
  ASSERT_TRUE(bandit.value_model_ready());
  // Greedy policy must now prefer the less-loaded node.
  const auto test_snapshot = two_node_snapshot(3.5, 0.5);
  EXPECT_EQ(bandit.pick_greedy(test_snapshot, job), 1u);
  const auto reversed = two_node_snapshot(0.5, 3.5);
  EXPECT_EQ(bandit.pick_greedy(reversed, job), 0u);
}

TEST(Bandit, ValueModelRankedByLtsSchedulerPicksTheGreedyNode) {
  // The RL bench scores the bandit as an evaluate_methods method: an
  // LtsScheduler over value_model() must select what pick_greedy picks.
  BanditScheduler bandit(7);
  spark::JobConfig job;
  Rng rng(3);
  for (int i = 0; i < 80; ++i) {
    const auto snapshot =
        two_node_snapshot(rng.uniform(0, 4), rng.uniform(0, 4));
    const std::size_t choice = bandit.pick(snapshot, job);
    bandit.observe(snapshot, job, choice,
                   5.0 + 2.0 * snapshot.nodes[choice].cpu_load);
  }
  ASSERT_NE(bandit.value_model(), nullptr);
  telemetry::Tsdb tsdb;  // unused by schedule_from_snapshot
  const LtsScheduler scheduler(TelemetryFetcher(tsdb, {"a", "b"}),
                               bandit.value_model(), kBanditFeatures);
  for (const auto& snapshot :
       {two_node_snapshot(3.5, 0.5), two_node_snapshot(0.5, 3.5),
        two_node_snapshot(1.0, 2.0), two_node_snapshot(1.0, 1.0)}) {
    EXPECT_EQ(scheduler.schedule_from_snapshot(snapshot, job).selected(),
              snapshot.nodes[bandit.pick_greedy(snapshot, job)].node);
  }
}

TEST(Bandit, EpsilonDecays) {
  BanditScheduler bandit(1);
  const double initial = bandit.current_epsilon();
  const auto snapshot = two_node_snapshot(1.0, 1.0);
  spark::JobConfig job;
  for (int i = 0; i < 200; ++i) {
    bandit.observe(snapshot, job, 0, 10.0);
  }
  EXPECT_LT(bandit.current_epsilon(), initial);
  EXPECT_GE(bandit.current_epsilon(), kBanditMinEpsilon);
}

TEST(Bandit, RejectsBadObservations) {
  BanditScheduler bandit(1);
  const auto snapshot = two_node_snapshot(1.0, 1.0);
  spark::JobConfig job;
  EXPECT_THROW(bandit.observe(snapshot, job, 5, 10.0), Error);
  EXPECT_THROW(bandit.observe(snapshot, job, 0, -1.0), Error);
}

}  // namespace
}  // namespace lts::core

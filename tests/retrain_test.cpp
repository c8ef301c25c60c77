// Tests for the online retraining subsystem: OnlineTrainer trigger logic
// (periodic schedule, drift EWMA, cooldown), the champion/challenger
// holdout gate, failure/skip degradation, and the kModelRetrain stream
// policy end to end (including the kRetrainFail fault).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/online_trainer.hpp"
#include "core/trainer.hpp"
#include "exp/collector.hpp"
#include "exp/envgen.hpp"
#include "exp/scenario.hpp"
#include "exp/stream.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace lts {
namespace {

// One synthetic completion whose duration is an exact linear function of
// its Table-1 features, so a linear model can learn it (and a depth-1
// stump forest cannot).
core::TrainingRecord synth_record(Rng& rng) {
  core::TrainingRecord r;
  r.scenario_id = "synthetic";
  r.node = "node-1";
  r.telemetry.node = "node-1";
  r.telemetry.rtt_mean = rng.uniform(0.010, 0.080);
  r.telemetry.rtt_max = r.telemetry.rtt_mean * 2.0;
  r.telemetry.rtt_std = r.telemetry.rtt_mean * 0.4;
  r.telemetry.tx_rate = rng.uniform(5e6, 80e6);
  r.telemetry.rx_rate = rng.uniform(5e6, 80e6);
  r.telemetry.cpu_load = rng.uniform(0.2, 3.0);
  r.telemetry.mem_available = rng.uniform(2.0, 8.0) * 1024 * 1024 * 1024;
  r.config.app = spark::AppType::kJoin;
  r.config.input_records = rng.uniform_int(250000, 750000);
  r.config.executors = 4;
  r.config.executor_memory = 2.0 * 1024 * 1024 * 1024;
  r.duration = 20.0 + 900.0 * r.telemetry.rtt_mean +
               1.5 * r.telemetry.cpu_load +
               1e-5 * static_cast<double>(r.config.input_records);
  return r;
}

std::shared_ptr<const ml::Regressor> train_initial_linear(std::size_t n,
                                                          std::uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data;
  data.set_feature_names(core::FeatureConstructor::feature_names());
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = synth_record(rng);
    data.add_row(core::FeatureConstructor::build(r.telemetry, r.config),
                 r.duration);
  }
  return std::shared_ptr<const ml::Regressor>(
      core::Trainer::train("linear", data));
}

core::RetrainOptions base_options() {
  core::RetrainOptions options;
  options.retrain_every = 10;
  options.window_size = 50;
  options.min_rows = 4;
  options.model_name = "linear";
  options.holdout_gate_slack = -1.0;  // every successful refit swaps
  return options;
}

// --------------------------------------------------------- OnlineTrainer ----

TEST(OnlineTrainer, PeriodicRefitSwapsAndBumpsVersion) {
  const auto initial = train_initial_linear(80, 21);
  core::OnlineTrainer trainer(base_options(), core::FeatureSet::kTable1,
                              initial);
  Rng rng(22);
  for (int i = 1; i <= 25; ++i) {
    const auto record = synth_record(rng);
    const auto event = trainer.on_completion(record, record.duration);
    if (i % 10 == 0) {
      ASSERT_TRUE(event.has_value()) << "completion " << i;
      EXPECT_EQ(event->outcome, core::RetrainOutcome::kSwapped);
      EXPECT_FALSE(event->drift_triggered);
    } else {
      EXPECT_FALSE(event.has_value()) << "completion " << i;
    }
  }
  EXPECT_EQ(trainer.model_version(), 2u);
  EXPECT_EQ(trainer.events().size(), 2u);
  EXPECT_NE(trainer.model().get(), initial.get());
  EXPECT_TRUE(trainer.model()->is_fitted());
  // Window is capped at window_size.
  EXPECT_EQ(trainer.window_rows(), 25u);
}

TEST(OnlineTrainer, SmallWindowSkipsAndKeepsServingModel) {
  auto options = base_options();
  options.retrain_every = 3;
  options.min_rows = 100;
  const auto initial = train_initial_linear(80, 31);
  core::OnlineTrainer trainer(options, core::FeatureSet::kTable1, initial);
  Rng rng(32);
  std::optional<core::RetrainEvent> event;
  for (int i = 0; i < 3; ++i) {
    event = trainer.on_completion(synth_record(rng), -1.0);
  }
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->outcome, core::RetrainOutcome::kSkipped);
  EXPECT_NE(event->detail.find("window too small"), std::string::npos);
  EXPECT_EQ(trainer.model_version(), 0u);
  EXPECT_EQ(trainer.model().get(), initial.get());
}

TEST(OnlineTrainer, DriftTriggerFiresAheadOfSchedule) {
  auto options = base_options();
  options.retrain_every = 1000;  // the schedule alone would never fire
  options.drift_threshold = 0.3;
  options.drift_ewma_alpha = 1.0;  // no smoothing: score = latest error
  options.drift_cooldown = 0;
  const auto initial = train_initial_linear(80, 41);
  core::OnlineTrainer trainer(options, core::FeatureSet::kTable1, initial);
  Rng rng(42);
  // Accurate predictions first: the drift score stays at zero.
  for (int i = 0; i < 6; ++i) {
    const auto record = synth_record(rng);
    EXPECT_FALSE(trainer.on_completion(record, record.duration).has_value());
  }
  EXPECT_DOUBLE_EQ(trainer.drift_score(), 0.0);
  // One badly mispredicted completion pushes the score over the threshold.
  const auto record = synth_record(rng);
  const auto event = trainer.on_completion(record, 2.5 * record.duration);
  ASSERT_TRUE(event.has_value());
  EXPECT_TRUE(event->drift_triggered);
  EXPECT_GT(event->drift_score, 0.3);
  EXPECT_EQ(event->outcome, core::RetrainOutcome::kSwapped);
  EXPECT_EQ(trainer.model_version(), 1u);
  // A successful swap resets the drift history.
  EXPECT_DOUBLE_EQ(trainer.drift_score(), 0.0);
}

TEST(OnlineTrainer, UnusablePredictionsDoNotPolluteDriftScore) {
  auto options = base_options();
  options.drift_threshold = 0.3;
  const auto initial = train_initial_linear(80, 51);
  core::OnlineTrainer trainer(options, core::FeatureSet::kTable1, initial);
  Rng rng(52);
  for (int i = 0; i < 5; ++i) {
    // Decisions without a usable prediction (a fallback ranking) arrive as
    // non-positive values and must be excluded from the EWMA.
    trainer.on_completion(synth_record(rng), -1.0);
    trainer.on_completion(synth_record(rng), 0.0);
  }
  EXPECT_DOUBLE_EQ(trainer.drift_score(), 0.0);
}

TEST(OnlineTrainer, FailureHookKeepsPreviousModel) {
  auto options = base_options();
  options.retrain_every = 5;
  const auto initial = train_initial_linear(80, 61);
  core::OnlineTrainer trainer(options, core::FeatureSet::kTable1, initial);
  trainer.set_failure_hook([] { return true; });
  Rng rng(62);
  for (int i = 0; i < 10; ++i) {
    const auto record = synth_record(rng);
    trainer.on_completion(record, record.duration);
  }
  ASSERT_EQ(trainer.events().size(), 2u);
  for (const auto& event : trainer.events()) {
    EXPECT_EQ(event.outcome, core::RetrainOutcome::kFailed);
    EXPECT_NE(event.detail.find("previous model keeps serving"),
              std::string::npos);
  }
  EXPECT_EQ(trainer.model_version(), 0u);
  EXPECT_EQ(trainer.model().get(), initial.get());
}

TEST(OnlineTrainer, HoldoutGateRejectsWeakCandidate) {
  // The serving linear model fits the synthetic durations (they are linear
  // in the features); the refit candidate is a two-stump forest that
  // cannot. With the gate on, the weak candidate must be rejected.
  auto options = base_options();
  options.retrain_every = 30;
  options.window_size = 60;
  options.min_rows = 24;
  options.model_name = "random_forest";
  options.holdout_fraction = 0.3;
  options.holdout_gate_slack = 0.0;
  Json weak = Json::object();
  weak["n_estimators"] = 2;
  weak["max_features"] = 1;
  Json tree = Json::object();
  tree["max_depth"] = 1;
  weak["tree"] = tree;
  options.params = weak;

  const auto initial = train_initial_linear(400, 71);
  core::OnlineTrainer gated(options, core::FeatureSet::kTable1, initial);
  Rng rng(72);
  std::optional<core::RetrainEvent> event;
  for (int i = 0; i < 30; ++i) {
    const auto record = synth_record(rng);
    event = gated.on_completion(record, record.duration);
  }
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->outcome, core::RetrainOutcome::kRejected);
  EXPECT_TRUE(std::isfinite(event->serving_rmse));
  EXPECT_GT(event->holdout_rmse, event->serving_rmse);
  EXPECT_EQ(gated.model_version(), 0u);
  EXPECT_EQ(gated.model().get(), initial.get());

  // The identical feed with the gate disabled swaps the weak candidate in:
  // the gate, not the trigger logic, is what protected the champion.
  options.holdout_gate_slack = -1.0;
  core::OnlineTrainer ungated(options, core::FeatureSet::kTable1, initial);
  Rng rng2(72);
  for (int i = 0; i < 30; ++i) {
    const auto record = synth_record(rng2);
    event = ungated.on_completion(record, record.duration);
  }
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->outcome, core::RetrainOutcome::kSwapped);
  EXPECT_EQ(ungated.model_version(), 1u);
}

TEST(OnlineTrainer, RetrainMetricsObserveDurationAndThroughput) {
  // Every attempt that reaches training — swapped and failed alike — must
  // land one observation in lts_retrain_duration_seconds, and successful
  // timing must publish a positive lts_train_rows_per_second.
  auto& registry = obs::MetricsRegistry::global();
  // Same boundaries as OnlineTrainer's registration: whichever side
  // registers first fixes them, and they must agree.
  auto& duration = obs::histogram(
      "lts_retrain_duration_seconds",
      {0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0});
  auto& rate = obs::gauge("lts_train_rows_per_second");
  registry.set_enabled(true);
  const auto count_before = duration.count();

  const auto initial = train_initial_linear(80, 91);
  core::OnlineTrainer trainer(base_options(), core::FeatureSet::kTable1,
                              initial);
  Rng rng(92);
  std::optional<core::RetrainEvent> event;
  for (int i = 0; i < 10; ++i) {
    const auto record = synth_record(rng);
    event = trainer.on_completion(record, record.duration);
  }
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->outcome, core::RetrainOutcome::kSwapped);
  EXPECT_EQ(duration.count(), count_before + 1);
  EXPECT_GT(rate.value(), 0.0);

  // The injected failure hook fires before training starts, so — like a
  // too-small-window skip — it must NOT land an observation: the histogram
  // only measures attempts that actually paid for training.
  trainer.set_failure_hook([] { return true; });
  for (int i = 0; i < 10; ++i) {
    const auto record = synth_record(rng);
    event = trainer.on_completion(record, record.duration);
  }
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->outcome, core::RetrainOutcome::kFailed);
  EXPECT_EQ(duration.count(), count_before + 1);
  registry.set_enabled(false);
}

// ---------------------------------------------------------------- stream ----

exp::StreamOptions small_stream_options() {
  exp::StreamOptions options;
  options.num_jobs = 15;
  options.mean_interarrival = 8.0;
  options.seed = 7;
  options.retrain.retrain_every = 5;
  options.retrain.min_rows = 4;
  options.retrain.window_size = 40;
  options.retrain.model_name = "linear";
  options.retrain.holdout_gate_slack = -1.0;
  return options;
}

std::shared_ptr<const ml::Regressor> small_stream_model(
    const std::vector<exp::Scenario>& matrix) {
  exp::CollectorOptions collect;
  collect.repeats = 1;
  const CsvTable log = exp::collect_training_data(matrix, collect);
  return std::shared_ptr<const ml::Regressor>(
      core::Trainer::train("linear", core::Trainer::dataset_from_log(log)));
}

TEST(StreamRetrain, CompletesAllJobsAndHotSwaps) {
  auto matrix = exp::paper_scenario_matrix();
  matrix.resize(8);
  const auto model = small_stream_model(matrix);
  const auto options = small_stream_options();
  const auto result = exp::run_job_stream(exp::StreamPolicy::kModelRetrain,
                                          model, matrix, options);
  ASSERT_EQ(result.jobs.size(), 15u);
  for (const auto& job : result.jobs) {
    EXPECT_GT(job.duration, 1.0);
    EXPECT_FALSE(job.driver_node.empty());
  }
  EXPECT_FALSE(result.retrain_events.empty());
  EXPECT_GE(result.model_version, 1u);
  ASSERT_NE(result.final_model, nullptr);
  EXPECT_TRUE(result.final_model->is_fitted());
  EXPECT_NE(result.final_model.get(), model.get());  // actually swapped

  // The kModel policy must ignore the retrain knobs entirely.
  const auto static_run = exp::run_job_stream(exp::StreamPolicy::kModel,
                                              model, matrix, options);
  EXPECT_TRUE(static_run.retrain_events.empty());
  EXPECT_EQ(static_run.model_version, 0u);
  EXPECT_EQ(static_run.final_model, nullptr);
}

TEST(StreamRetrain, JobPlanIsPolicyIndependent) {
  auto matrix = exp::paper_scenario_matrix();
  matrix.resize(8);
  const auto model = small_stream_model(matrix);
  const auto options = small_stream_options();
  const auto retrained = exp::run_job_stream(
      exp::StreamPolicy::kModelRetrain, model, matrix, options);
  const auto random = exp::run_job_stream(exp::StreamPolicy::kRandom,
                                          nullptr, matrix, options);
  ASSERT_EQ(retrained.jobs.size(), random.jobs.size());
  // The pre-drawn plan (which job arrives when) is policy-independent;
  // actual submit times may differ under contention because placement
  // retries depend on how earlier jobs were placed.
  for (std::size_t j = 0; j < retrained.jobs.size(); ++j) {
    EXPECT_EQ(retrained.jobs[j].scenario_id, random.jobs[j].scenario_id);
  }
}

TEST(StreamRetrain, RetrainFailFaultNeverInterruptsScheduling) {
  auto matrix = exp::paper_scenario_matrix();
  matrix.resize(8);
  const auto model = small_stream_model(matrix);
  auto options = small_stream_options();
  // Permanent (duration <= 0) training-pipeline outage from t=0.
  options.env.faults.push_back(
      {fault::FaultKind::kRetrainFail, "", 0.0, 0.0, 1.0});
  const auto result = exp::run_job_stream(exp::StreamPolicy::kModelRetrain,
                                          model, matrix, options);
  ASSERT_EQ(result.jobs.size(), 15u);
  for (const auto& job : result.jobs) EXPECT_GT(job.duration, 1.0);
  ASSERT_FALSE(result.retrain_events.empty());
  for (const auto& event : result.retrain_events) {
    EXPECT_EQ(event.outcome, core::RetrainOutcome::kFailed);
  }
  EXPECT_EQ(result.model_version, 0u);
  ASSERT_NE(result.final_model, nullptr);
  EXPECT_EQ(result.final_model.get(), model.get());  // never replaced
}

}  // namespace
}  // namespace lts

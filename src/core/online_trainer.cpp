#include "core/online_trainer.hpp"

#include <chrono>
#include <cmath>

#include "core/trainer.hpp"
#include "ml/metrics.hpp"
#include "obs/metrics.hpp"
#include "util/string_util.hpp"

namespace lts::core {
namespace {

/// Holdout-split Rng seed; each refit adds the model version to it.
constexpr std::uint64_t kHoldoutSeed = 97;

struct RetrainMetrics {
  obs::Counter& swapped = obs::counter(
      "lts_retrain_total", {},
      "Successful online refits (a new model version was hot-swapped in)");
  obs::Counter& failed = obs::counter(
      "lts_retrain_failed_total", {},
      "Refit attempts that failed (exception or fault injection); the "
      "previous model kept serving");
  obs::Counter& skipped = obs::counter(
      "lts_retrain_skipped_total", {},
      "Refit attempts skipped because the window had too few rows");
  obs::Counter& rejected = obs::counter(
      "lts_retrain_rejected_total", {},
      "Refit candidates rejected by the champion/challenger holdout gate; "
      "the previous model kept serving");
  obs::Counter& drift_fires = obs::counter(
      "lts_retrain_drift_triggered_total", {},
      "Refit attempts initiated by the drift trigger rather than the "
      "periodic schedule");
  obs::Gauge& model_version = obs::gauge(
      "lts_model_version", {},
      "Version of the model currently serving (0 = initial offline model)");
  obs::Gauge& drift_score = obs::gauge(
      "lts_retrain_drift_score", {},
      "EWMA of relative prediction error |predicted-actual|/actual over "
      "recent completions");
  obs::Gauge& window_rows = obs::gauge(
      "lts_retrain_window_rows", {},
      "Completions currently held in the rolling training window");
  obs::Histogram& duration = obs::histogram(
      "lts_retrain_duration_seconds",
      {0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0}, {},
      "Wall-clock time of the full refit attempt (train + holdout gate + "
      "swap), observed for every attempt that reached training — swapped, "
      "rejected, and failed alike");
  obs::Gauge& train_rate = obs::gauge(
      "lts_train_rows_per_second", {},
      "Training throughput of the most recent refit attempt: window rows "
      "divided by the full refit wall time");
  static RetrainMetrics& get() {
    static RetrainMetrics m;
    return m;
  }
};

}  // namespace

std::string to_string(RetrainOutcome outcome) {
  switch (outcome) {
    case RetrainOutcome::kSwapped:
      return "swapped";
    case RetrainOutcome::kSkipped:
      return "skipped";
    case RetrainOutcome::kRejected:
      return "rejected";
    case RetrainOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

OnlineTrainer::OnlineTrainer(RetrainOptions options, FeatureSet features,
                             std::shared_ptr<const ml::Regressor> initial_model)
    : options_(std::move(options)),
      features_(features),
      model_(std::move(initial_model)) {
  LTS_REQUIRE(options_.retrain_every >= 1,
              "RetrainOptions: retrain_every must be >= 1");
  LTS_REQUIRE(options_.window_size >= 1,
              "RetrainOptions: window_size must be >= 1");
  LTS_REQUIRE(options_.drift_threshold >= 0.0,
              "RetrainOptions: drift_threshold must be >= 0");
  LTS_REQUIRE(
      options_.drift_ewma_alpha > 0.0 && options_.drift_ewma_alpha <= 1.0,
      "RetrainOptions: drift_ewma_alpha must be in (0, 1]");
  LTS_REQUIRE(options_.drift_cooldown >= 0,
              "RetrainOptions: drift_cooldown must be >= 0");
  LTS_REQUIRE(
      options_.holdout_fraction >= 0.0 && options_.holdout_fraction < 1.0,
      "RetrainOptions: holdout_fraction must be in [0, 1)");
  LTS_REQUIRE(options_.params.is_null() || options_.params.is_object(),
              "RetrainOptions: params must be a JSON object or null");
}

std::optional<RetrainEvent> OnlineTrainer::on_completion(
    const TrainingRecord& record, double predicted_duration) {
  auto& metrics = RetrainMetrics::get();

  window_.push_back(record);
  while (window_.size() > options_.window_size) window_.pop_front();
  metrics.window_rows.set(static_cast<double>(window_.size()));

  // Drift score: EWMA of the relative error of usable predictions. The
  // actual duration is positive by construction (it is a measured
  // completion time).
  if (predicted_duration > 0.0 && record.duration > 0.0) {
    const double err =
        std::abs(predicted_duration - record.duration) / record.duration;
    drift_score_ = drift_seeded_ ? options_.drift_ewma_alpha * err +
                                       (1.0 - options_.drift_ewma_alpha) *
                                           drift_score_
                                 : err;
    drift_seeded_ = true;
    metrics.drift_score.set(drift_score_);
  }

  ++completions_since_retrain_;
  if (completions_since_drift_fire_ < std::numeric_limits<int>::max()) {
    ++completions_since_drift_fire_;
  }

  const bool periodic_due =
      completions_since_retrain_ >= options_.retrain_every;
  const bool drift_due =
      options_.drift_threshold > 0.0 && drift_seeded_ &&
      drift_score_ > options_.drift_threshold &&
      completions_since_drift_fire_ >= options_.drift_cooldown;
  if (!periodic_due && !drift_due) return std::nullopt;

  // Attribute the attempt to drift only when the schedule alone would not
  // have fired it.
  const bool drift_triggered = drift_due && !periodic_due;
  if (drift_triggered) metrics.drift_fires.inc();

  RetrainEvent event = retrain_now(drift_triggered);
  completions_since_retrain_ = 0;
  completions_since_drift_fire_ = 0;
  events_.push_back(event);
  return event;
}

RetrainEvent OnlineTrainer::retrain_now(bool drift_triggered) {
  auto& metrics = RetrainMetrics::get();
  RetrainEvent event;
  event.version = version_;
  event.window_rows = window_.size();
  event.drift_score = drift_score_;
  event.drift_triggered = drift_triggered;

  if (failure_hook_ && failure_hook_()) {
    event.outcome = RetrainOutcome::kFailed;
    event.detail = "injected retrain failure; previous model keeps serving";
    metrics.failed.inc();
    return event;
  }

  // GBT needs 4 rows; everything below min_rows is noise anyway.
  if (window_.size() < std::max<std::size_t>(options_.min_rows, 4)) {
    event.outcome = RetrainOutcome::kSkipped;
    event.detail = "window too small (" + std::to_string(window_.size()) +
                   " rows, need " +
                   std::to_string(std::max<std::size_t>(options_.min_rows, 4)) +
                   ")";
    metrics.skipped.inc();
    return event;
  }

  // lts-lint: nondeterminism-ok(wall time measures real refit cost for the obs duration histogram only; no simulation or model state depends on it)
  const auto wall_begin = std::chrono::steady_clock::now();
  try {
    ml::Dataset data;
    data.set_feature_names(FeatureConstructor::feature_names(features_));
    for (const TrainingRecord& r : window_) {
      data.add_row(FeatureConstructor::build(r.telemetry, r.config, features_),
                   r.duration);
    }

    // Optional holdout for the reported RMSE. Infeasible splits (tiny
    // windows) fall back to training on everything — the skip threshold
    // above already guarantees enough rows to fit.
    ml::Dataset train_set = data;
    ml::Dataset test_set;
    bool have_holdout = false;
    if (options_.holdout_fraction > 0.0) {
      const auto test_count = static_cast<std::size_t>(std::max(
          1.0,
          options_.holdout_fraction * static_cast<double>(data.size())));
      if (test_count < data.size() && data.size() - test_count >= 4) {
        Rng rng(kHoldoutSeed + version_);
        auto split = data.train_test_split(options_.holdout_fraction, rng);
        train_set = std::move(split.first);
        test_set = std::move(split.second);
        have_holdout = true;
      }
    }

    const Json params = options_.params.is_object()
                            ? options_.params
                            : default_retrain_params(options_.model_name);

    // A new model: a failure at any point leaves the serving one untouched.
    std::unique_ptr<ml::Regressor> candidate =
        Trainer::train(options_.model_name, train_set, params);

    if (have_holdout) {
      event.holdout_rmse =
          ml::rmse(test_set.y(), candidate->predict(test_set.x()));

      // Champion/challenger gate: the candidate has to earn the swap by
      // matching the serving model on rows neither trained on.
      if (options_.holdout_gate_slack >= 0.0 && model_ != nullptr &&
          model_->is_fitted()) {
        event.serving_rmse =
            ml::rmse(test_set.y(), model_->predict(test_set.x()));
        if (event.holdout_rmse >
            event.serving_rmse * (1.0 + options_.holdout_gate_slack)) {
          event.outcome = RetrainOutcome::kRejected;
          event.detail = strformat(
              "candidate lost the holdout (%.2fs RMSE vs serving %.2fs); "
              "previous model keeps serving",
              event.holdout_rmse, event.serving_rmse);
          metrics.rejected.inc();
        }
      }
    }

    if (event.outcome != RetrainOutcome::kRejected) {
      ++version_;
      model_ = std::shared_ptr<const ml::Regressor>(std::move(candidate));
      event.outcome = RetrainOutcome::kSwapped;
      event.version = version_;
      event.detail = "fresh fit";
      // A fresh model invalidates the error history of the old one.
      drift_seeded_ = false;
      drift_score_ = 0.0;
      metrics.swapped.inc();
      metrics.model_version.set(static_cast<double>(version_));
      metrics.drift_score.set(0.0);
    }
  } catch (const std::exception& e) {
    event.outcome = RetrainOutcome::kFailed;
    event.detail = std::string("refit failed: ") + e.what() +
                   "; previous model keeps serving";
    metrics.failed.inc();
  }
  // Retrain latency is decision-loop latency now that refits run inside the
  // serving loop: record the full attempt (train + gate + swap) whether the
  // candidate won, lost the gate, or threw — only pre-training skips are
  // excluded — plus the rows-per-second throughput the attempt achieved.
  const double elapsed =
      // lts-lint: nondeterminism-ok(wall-clock delta recorded into the obs histogram/gauge; values are observational only and never read back)
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();
  metrics.duration.observe(elapsed);
  if (elapsed > 0.0) {
    metrics.train_rate.set(static_cast<double>(event.window_rows) / elapsed);
  }
  return event;
}

Json OnlineTrainer::default_retrain_params(const std::string& model_name) {
  Json p = Json::object();
  p["log_target"] = true;
  if (model_name == "linear") {
    p["l2"] = 1e-3;
  } else if (model_name == "random_forest") {
    // A fraction of the offline 800-tree forest: refits run inside the
    // serving loop on a few-hundred-row window, where extra trees buy
    // variance reduction the window cannot support.
    p["n_estimators"] = 120;
    p["max_features"] = 3;
    Json tree = Json::object();
    tree["max_depth"] = 25;
    tree["min_samples_leaf"] = 1;
    p["tree"] = tree;
  } else if (model_name == "xgboost") {
    p["n_rounds"] = 200;
    p["learning_rate"] = 0.08;
    p["max_depth"] = 4;
    p["subsample"] = 0.8;
    p["colsample"] = 0.8;
  } else if (model_name == "decision_tree") {
    p["max_depth"] = 12;
  }
  return p;
}

}  // namespace lts::core

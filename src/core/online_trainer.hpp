// OnlineTrainer: the "retrain without downtime" half of §2.3/§2.4.
//
// The offline Trainer fits once on a historical corpus; this class closes
// the loop at serving time. Every completed job contributes one
// (telemetry, config, duration) row to a rolling window, and the trainer
// refits either periodically (every K completions) or when a drift
// detector fires — a rolling EWMA of the per-decision relative prediction
// error, which rises when network conditions shift away from what the
// serving model learned. A successful refit produces a new versioned model
// that the caller hot-swaps into the scheduler; a failed or skipped refit
// keeps the previous model serving, visible only through obs counters and
// the event log. Every refit is a fresh Trainer::train on the window.
// Everything is deterministic for a given (options, input sequence): the
// only Rng, the holdout split's, is seeded from a constant and the version.
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/logger.hpp"
#include "ml/model.hpp"

namespace lts::core {

/// Knobs for the online retraining loop. Defaults are the values used by
/// the retraining benchmark; EXPERIMENTS.md discusses the trade-offs.
struct RetrainOptions {
  /// Refit every this many completions (the periodic trigger).
  int retrain_every = 25;
  /// Rolling window: at most this many most-recent completions are kept.
  std::size_t window_size = 400;
  /// A due refit with fewer rows than this is skipped (counted, reported,
  /// never fatal) — early windows are too small to learn from.
  std::size_t min_rows = 24;
  /// Drift trigger: refit early when the prediction-error EWMA exceeds
  /// this. 0 disables the trigger (periodic refits only). The score is the
  /// EWMA of |predicted - actual| / actual over completions that had a
  /// usable model prediction, so 0.5 means "recent predictions are off by
  /// ~50%".
  double drift_threshold = 0.0;
  /// EWMA smoothing factor for the drift score (weight of the newest
  /// observation).
  double drift_ewma_alpha = 0.15;
  /// Minimum completions between consecutive drift-triggered refits, so a
  /// burst of bad predictions cannot refit on every completion.
  int drift_cooldown = 8;
  /// Model family each refit trains (registry name).
  std::string model_name = "random_forest";
  /// Hyperparameters (JSON object) or null for default_retrain_params().
  Json params;
  /// Held-out fraction of the window used to report each refit's RMSE.
  /// 0 trains on the full window and reports NaN.
  double holdout_fraction = 0.25;
  /// Champion/challenger gate: when a holdout split is feasible, the refit
  /// candidate must match the serving model's RMSE on the same held-out
  /// rows within this relative slack (candidate <= serving * (1 + slack))
  /// or the swap is rejected and the previous model keeps serving. The
  /// gate is what makes retraining safe on a stationary stream — a
  /// candidate trained on a small window cannot displace a good model it
  /// fails to beat. Negative disables the gate (every successful refit
  /// swaps).
  double holdout_gate_slack = 0.05;
};

enum class RetrainOutcome {
  kSwapped,   // refit succeeded, new model version is serving
  kSkipped,   // window too small — previous model keeps serving
  kRejected,  // candidate lost to the serving model on the holdout
  kFailed,    // refit threw or was fault-injected — previous model serves
};

std::string to_string(RetrainOutcome outcome);

/// One retrain attempt, successful or not.
struct RetrainEvent {
  RetrainOutcome outcome = RetrainOutcome::kSkipped;
  /// Model version serving after the event (unchanged unless kSwapped).
  std::uint64_t version = 0;
  std::size_t window_rows = 0;
  double drift_score = 0.0;
  /// True when the drift trigger (not the periodic one) fired the attempt.
  bool drift_triggered = false;
  /// Holdout RMSE of the refit candidate (NaN when skipped/failed or when
  /// holdout_fraction is 0).
  double holdout_rmse = std::numeric_limits<double>::quiet_NaN();
  /// Serving model's RMSE on the same holdout (NaN unless the
  /// champion/challenger gate evaluated it).
  double serving_rmse = std::numeric_limits<double>::quiet_NaN();
  std::string detail;
};

class OnlineTrainer {
 public:
  /// `initial_model` is the offline-trained model serving at stream start
  /// (version 0); may be null only if the caller's scheduler runs in
  /// degraded mode. Feature vectors are built with `features`, which must
  /// match the layout the initial model was trained on.
  OnlineTrainer(RetrainOptions options, FeatureSet features,
                std::shared_ptr<const ml::Regressor> initial_model);

  /// Feeds one completed job. `predicted_duration` is what the serving
  /// model forecast for the chosen node at decision time; pass a
  /// non-positive value when the decision had no usable prediction (a
  /// fallback ranking) so it does not pollute the drift score. Returns the
  /// retrain event if this completion triggered an attempt.
  std::optional<RetrainEvent> on_completion(const TrainingRecord& record,
                                            double predicted_duration);

  /// The currently-serving model (hot-swap target for the caller).
  const std::shared_ptr<const ml::Regressor>& model() const {
    return model_;
  }
  /// 0 = the initial offline model; incremented by each successful refit.
  std::uint64_t model_version() const { return version_; }
  double drift_score() const { return drift_score_; }
  std::size_t window_rows() const { return window_.size(); }
  /// Every retrain attempt so far, in order.
  const std::vector<RetrainEvent>& events() const { return events_; }

  /// Fault-injection seam: when set and returning true at refit time, the
  /// attempt fails without training (the injected-failure path). The
  /// previous model keeps serving.
  void set_failure_hook(std::function<bool()> hook) {
    failure_hook_ = std::move(hook);
  }

  /// Smaller hyperparameters than Trainer::default_params — a refit runs
  /// inside the serving loop on a few hundred rows, so the 800-tree
  /// offline forest would be pure waste there.
  static Json default_retrain_params(const std::string& model_name);

 private:
  RetrainEvent retrain_now(bool drift_triggered);

  RetrainOptions options_;
  FeatureSet features_;
  std::shared_ptr<const ml::Regressor> model_;
  std::uint64_t version_ = 0;
  std::deque<TrainingRecord> window_;
  double drift_score_ = 0.0;
  bool drift_seeded_ = false;
  int completions_since_retrain_ = 0;
  int completions_since_drift_fire_ = std::numeric_limits<int>::max();
  std::function<bool()> failure_hook_;
  std::vector<RetrainEvent> events_;
};

}  // namespace lts::core

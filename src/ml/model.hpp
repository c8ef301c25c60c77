// Regressor interface and registry.
//
// The scheduler core only sees this interface (§3.2.3 "Supervised Learning
// Model"): fit on historical (features, duration) pairs, predict durations
// at decision time, through the one prediction a model implements:
// predict_batch. The registry maps the paper's model names ("linear",
// "random_forest", "xgboost") to factories so Table 4 can iterate model
// families uniformly. Models serialize to JSON for offline training /
// online serving separation (§2.4 deployability).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"
#include "util/json.hpp"

namespace lts::ml {

/// A prediction with (optional) model uncertainty. Ensemble models expose
/// their spread; point models report zero.
struct Prediction {
  double mean = 0.0;
  double stddev = 0.0;
};

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains on the dataset from scratch. Retraining (§2.4) is another fit
  /// on the new window: nothing carries over from an earlier fit.
  virtual void fit(const Dataset& data) = 0;

  /// Batched prediction over a row-major feature block: `rows` vectors of
  /// `cols` doubles each, contiguous in `x`; one prediction per row is
  /// written to `out` (size >= rows). Requires is_fitted(). A row's
  /// prediction does not depend on the rest of its block.
  virtual void predict_batch(std::span<const double> x, std::size_t rows,
                             std::size_t cols, std::span<double> out) const = 0;

  /// predict_batch over one feature vector.
  double predict_row(std::span<const double> features) const;

  /// predict_batch over every row of `x` (Matrix rows are contiguous).
  std::vector<double> predict(const Matrix& x) const;

  /// Point prediction plus uncertainty. The default wraps predict_row with
  /// zero spread; ensembles override (random forest: stddev across trees).
  virtual Prediction predict_with_uncertainty(
      std::span<const double> features) const {
    return Prediction{predict_row(features), 0.0};
  }

  virtual bool is_fitted() const = 0;

  /// Registry name ("linear", "random_forest", "xgboost").
  virtual std::string name() const = 0;

  /// Serializes hyperparameters + learned state.
  virtual Json to_json() const = 0;

  /// Restores learned state from to_json() output.
  virtual void from_json(const Json& j) = 0;

  /// Per-feature importance scores summing to 1 (all-zero for models
  /// without a natural importance, e.g. before fitting).
  virtual std::vector<double> feature_importances() const { return {}; }

 protected:
  /// The checks predict_batch opens with: the model is fitted, `cols` is
  /// its feature width, and `x` and `out` hold `rows` rows.
  void check_batch(std::span<const double> x, std::size_t rows,
                   std::size_t cols, std::span<const double> out,
                   std::size_t num_features) const;
};

/// Wraps any regressor to fit on log(target) and predict back in the
/// original scale. Job durations are positive and heteroscedastic (long
/// jobs have proportionally larger variance); fitting in log space stops
/// SSE-based tree splits from being dominated by the long-job regime. The
/// ranking a scheduler derives is invariant to this monotone transform.
class LogTargetRegressor : public Regressor {
 public:
  explicit LogTargetRegressor(std::unique_ptr<Regressor> inner);

  void fit(const Dataset& data) override;
  void predict_batch(std::span<const double> x, std::size_t rows,
                     std::size_t cols, std::span<double> out) const override;
  bool is_fitted() const override;
  Prediction predict_with_uncertainty(
      std::span<const double> features) const override;
  std::string name() const override { return inner_->name(); }
  Json to_json() const override;
  void from_json(const Json& j) override;
  std::vector<double> feature_importances() const override;

  const Regressor& inner() const { return *inner_; }

 private:
  std::unique_ptr<Regressor> inner_;
};

/// Creates a model by registry name with optional hyperparameter overrides
/// (a JSON object whose keys match the model's parameter names). Throws on
/// unknown names so experiment configs fail loudly.
std::unique_ptr<Regressor> create_regressor(const std::string& name,
                                            const Json& params = Json());

/// Names available in the registry, in a stable order.
std::vector<std::string> registered_regressors();

/// Round-trips a model through its serialized form (type tag included).
/// The envelope additionally carries `model_version`, a monotonically
/// increasing counter stamped by the online retraining loop so operators
/// can tell which retrain produced a deployed artifact (0 = offline-trained,
/// never hot-swapped). Envelopes written before versioning load as 0.
Json model_to_json(const Regressor& model, std::uint64_t model_version = 0);
std::unique_ptr<Regressor> model_from_json(const Json& j);

/// Version stamp of a serialized envelope (0 when absent). Throws the same
/// diagnostics as model_from_json on a malformed envelope.
std::uint64_t model_version_from_json(const Json& j);

/// Writes the model atomically: the serialized envelope lands in
/// `<path>.tmp` first, the stream is checked after write and close, and
/// only then is the temporary renamed over `path`. A crash or full disk
/// mid-write therefore never leaves a truncated model where a serving
/// loop (or the retraining hot-swap) would load it.
void save_model(const Regressor& model, const std::string& path,
                std::uint64_t model_version = 0);

/// A deserialized model plus its envelope version stamp.
struct LoadedModel {
  std::unique_ptr<Regressor> model;
  std::uint64_t version = 0;
};

/// Loads an envelope, reporting the path in any failure diagnostic
/// (unreadable file, malformed JSON, unknown model type, missing keys).
LoadedModel load_model_envelope(const std::string& path);
std::unique_ptr<Regressor> load_model(const std::string& path);

}  // namespace lts::ml

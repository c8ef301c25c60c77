#include "ml/model.hpp"

#include <cmath>
#include <cstdio>

#include <fstream>
#include <sstream>

#include "ml/forest.hpp"
#include "ml/gbt.hpp"
#include "ml/linear.hpp"
#include "ml/tree.hpp"

namespace lts::ml {

double Regressor::predict_row(std::span<const double> features) const {
  double out = 0.0;
  predict_batch(features, 1, features.size(), std::span<double>(&out, 1));
  return out;
}

std::vector<double> Regressor::predict(const Matrix& x) const {
  std::vector<double> out(x.rows(), 0.0);
  predict_batch(x.data(), x.rows(), x.cols(), out);
  return out;
}

void Regressor::check_batch(std::span<const double> x, std::size_t rows,
                            std::size_t cols, std::span<const double> out,
                            std::size_t num_features) const {
  LTS_REQUIRE(is_fitted(), name() + ": not fitted");
  LTS_REQUIRE(cols == num_features, name() + ": feature width mismatch");
  LTS_REQUIRE(x.size() >= rows * cols,
              name() + ": feature block smaller than rows * cols");
  LTS_REQUIRE(out.size() >= rows, name() + ": output span too small");
}

LogTargetRegressor::LogTargetRegressor(std::unique_ptr<Regressor> inner)
    : inner_(std::move(inner)) {
  LTS_REQUIRE(inner_ != nullptr, "LogTargetRegressor: null inner model");
}

namespace {

Dataset log_transformed(const Dataset& data) {
  std::vector<double> log_y;
  log_y.reserve(data.size());
  for (const double y : data.y()) {
    LTS_REQUIRE(y > 0.0, "LogTargetRegressor: targets must be positive");
    log_y.push_back(std::log(y));
  }
  Matrix x = data.x();
  return Dataset(std::move(x), std::move(log_y), data.feature_names());
}

}  // namespace

void LogTargetRegressor::fit(const Dataset& data) {
  inner_->fit(log_transformed(data));
}

void LogTargetRegressor::predict_batch(std::span<const double> x,
                                       std::size_t rows, std::size_t cols,
                                       std::span<double> out) const {
  inner_->predict_batch(x, rows, cols, out);
  for (std::size_t r = 0; r < rows; ++r) out[r] = std::exp(out[r]);
}

Prediction LogTargetRegressor::predict_with_uncertainty(
    std::span<const double> features) const {
  const Prediction log_space = inner_->predict_with_uncertainty(features);
  // First-order delta method: exp transform scales the spread by the
  // predicted value.
  const double mean = std::exp(log_space.mean);
  return Prediction{mean, mean * log_space.stddev};
}

bool LogTargetRegressor::is_fitted() const { return inner_->is_fitted(); }

Json LogTargetRegressor::to_json() const { return inner_->to_json(); }

void LogTargetRegressor::from_json(const Json& j) { inner_->from_json(j); }

std::vector<double> LogTargetRegressor::feature_importances() const {
  return inner_->feature_importances();
}

std::unique_ptr<Regressor> create_regressor(const std::string& name,
                                            const Json& params) {
  const Json p = params.is_object() ? params : Json::object();
  // "log_target": true wraps the model in a LogTargetRegressor. The inner
  // parameter parsers ignore the extra key.
  if (p.contains("log_target") && p.at("log_target").as_bool()) {
    Json inner_params = p;
    inner_params["log_target"] = false;
    return std::make_unique<LogTargetRegressor>(
        create_regressor(name, inner_params));
  }
  if (name == "linear") {
    return std::make_unique<LinearRegression>(LinearParams::from_json(p));
  }
  if (name == "decision_tree") {
    return std::make_unique<DecisionTreeRegressor>(TreeParams::from_json(p));
  }
  if (name == "random_forest") {
    return std::make_unique<RandomForestRegressor>(ForestParams::from_json(p));
  }
  if (name == "xgboost") {
    return std::make_unique<GradientBoostedTrees>(GbtParams::from_json(p));
  }
  throw Error("create_regressor: unknown model name '" + name + "'");
}

std::vector<std::string> registered_regressors() {
  return {"linear", "decision_tree", "random_forest", "xgboost"};
}

Json model_to_json(const Regressor& model, std::uint64_t model_version) {
  Json j = Json::object();
  j["type"] = model.name();
  j["log_target"] =
      dynamic_cast<const LogTargetRegressor*>(&model) != nullptr;
  j["model_version"] = static_cast<double>(model_version);
  j["state"] = model.to_json();
  return j;
}

namespace {

/// Structural checks up front so a corrupt envelope fails with one clear
/// message instead of whatever Json::at happens to throw first.
void require_envelope_shape(const Json& j) {
  LTS_REQUIRE(j.is_object(),
              "model envelope: expected a JSON object, got a different type");
  LTS_REQUIRE(j.contains("type") && j.at("type").is_string(),
              "model envelope: missing or non-string 'type' tag");
  LTS_REQUIRE(j.contains("state"),
              "model envelope: missing 'state' (learned parameters)");
}

}  // namespace

std::unique_ptr<Regressor> model_from_json(const Json& j) {
  require_envelope_shape(j);
  auto model = create_regressor(j.at("type").as_string());
  if (j.contains("log_target") && j.at("log_target").as_bool()) {
    model = std::make_unique<LogTargetRegressor>(std::move(model));
  }
  model->from_json(j.at("state"));
  return model;
}

std::uint64_t model_version_from_json(const Json& j) {
  require_envelope_shape(j);
  if (!j.contains("model_version")) return 0;  // pre-versioning envelope
  return j.uint_at("model_version");
}

void save_model(const Regressor& model, const std::string& path,
                std::uint64_t model_version) {
  // Write-then-rename: the serving path (and the retraining hot-swap loop)
  // must never observe a half-written model. Stream state is checked after
  // both the write and the close so ENOSPC or a failed flush surfaces as an
  // exception with the temporary cleaned up, leaving any previous model at
  // `path` intact.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    LTS_REQUIRE(f.good(), "save_model: cannot open " + tmp);
    f << model_to_json(model, model_version).dump(2);
    f.flush();
    if (!f.good()) {
      f.close();
      std::remove(tmp.c_str());
      throw Error("save_model: write failed for " + tmp);
    }
    f.close();
    if (f.fail()) {
      std::remove(tmp.c_str());
      throw Error("save_model: close failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("save_model: cannot rename " + tmp + " to " + path);
  }
}

LoadedModel load_model_envelope(const std::string& path) {
  std::ifstream f(path);
  LTS_REQUIRE(f.good(), "load_model: cannot open " + path);
  std::stringstream buffer;
  buffer << f.rdbuf();
  try {
    const Json envelope = Json::parse(buffer.str());
    LoadedModel loaded;
    loaded.version = model_version_from_json(envelope);
    loaded.model = model_from_json(envelope);
    return loaded;
  } catch (const std::exception& e) {
    throw Error("load_model: " + path + ": " + e.what());
  }
}

std::unique_ptr<Regressor> load_model(const std::string& path) {
  return std::move(load_model_envelope(path).model);
}

}  // namespace lts::ml

#include "ml/linear.hpp"

#include <cmath>

#include "ml/matrix.hpp"
#include "util/stats.hpp"

namespace lts::ml {

LinearParams LinearParams::from_json(const Json& j) {
  LinearParams p;
  if (j.contains("l2")) p.l2 = j.at("l2").as_double();
  return p;
}

Json LinearParams::to_json() const {
  Json j = Json::object();
  j["l2"] = l2;
  return j;
}

LinearRegression::LinearRegression(LinearParams params) : params_(params) {
  LTS_REQUIRE(params_.l2 >= 0.0, "LinearRegression: l2 must be >= 0");
}

void LinearRegression::fit(const Dataset& data) {
  LTS_REQUIRE(data.size() >= 2, "LinearRegression: need at least 2 samples");
  const std::size_t n = data.size();
  const std::size_t p = data.num_features();

  // Standardize features; constant columns get weight zero via std=1 trick.
  std::vector<double> mu(p, 0.0), sigma(p, 0.0);
  for (std::size_t j = 0; j < p; ++j) {
    RunningStats stats;
    for (std::size_t i = 0; i < n; ++i) stats.add(data.x()(i, j));
    mu[j] = stats.mean();
    sigma[j] = stats.stddev() > 1e-12 ? stats.stddev() : 1.0;
  }
  const double y_mean = mean(data.y());

  // Normal equations on standardized, centered data: (Z^T Z + lambda I) w =
  // Z^T (y - y_mean).
  Matrix a(p, p, 0.0);
  std::vector<double> b(p, 0.0);
  std::vector<double> z(p, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = data.row(i);
    for (std::size_t j = 0; j < p; ++j) z[j] = (row[j] - mu[j]) / sigma[j];
    const double yc = data.target(i) - y_mean;
    for (std::size_t j = 0; j < p; ++j) {
      b[j] += z[j] * yc;
      for (std::size_t k = j; k < p; ++k) a(j, k) += z[j] * z[k];
    }
  }
  const double ridge =
      std::max(params_.l2, 1e-10) * static_cast<double>(n);
  for (std::size_t j = 0; j < p; ++j) {
    a(j, j) += ridge;
    for (std::size_t k = 0; k < j; ++k) a(j, k) = a(k, j);
  }
  const std::vector<double> w = solve_cholesky(std::move(a), std::move(b));

  // Fold standardization back into original-space coefficients.
  coef_.assign(p, 0.0);
  intercept_ = y_mean;
  for (std::size_t j = 0; j < p; ++j) {
    coef_[j] = w[j] / sigma[j];
    intercept_ -= coef_[j] * mu[j];
  }
  fitted_ = true;
}

void LinearRegression::predict_batch(std::span<const double> x,
                                     std::size_t rows, std::size_t cols,
                                     std::span<double> out) const {
  check_batch(x, rows, cols, out, coef_.size());
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = x.data() + r * cols;
    double y = intercept_;
    for (std::size_t j = 0; j < cols; ++j) y += coef_[j] * row[j];
    out[r] = y;
  }
}

Json LinearRegression::to_json() const {
  Json j = Json::object();
  j["params"] = params_.to_json();
  j["fitted"] = fitted_;
  if (fitted_) {
    j["coef"] = Json::from_doubles(coef_);
    j["intercept"] = intercept_;
  }
  return j;
}

void LinearRegression::from_json(const Json& j) {
  params_ = LinearParams::from_json(j.at("params"));
  fitted_ = j.at("fitted").as_bool();
  if (fitted_) {
    coef_ = j.at("coef").to_doubles();
    intercept_ = j.at("intercept").as_double();
  }
}

std::vector<double> LinearRegression::feature_importances() const {
  if (!fitted_) return {};
  // |coefficient| share — crude but standard for linear baselines.
  std::vector<double> imp(coef_.size(), 0.0);
  double total = 0.0;
  for (std::size_t j = 0; j < coef_.size(); ++j) {
    imp[j] = std::abs(coef_[j]);
    total += imp[j];
  }
  if (total > 0.0) {
    for (auto& v : imp) v /= total;
  }
  return imp;
}

}  // namespace lts::ml

// Ridge / ordinary least squares linear regression — the paper's simple,
// interpretable baseline model.
//
// Features are standardized internally (zero mean, unit variance) before
// solving the regularized normal equations with a Cholesky factorization;
// this keeps the system well-conditioned when byte-scale features (memory)
// meet second-scale features (RTT).
#pragma once

#include "ml/model.hpp"

namespace lts::ml {

struct LinearParams {
  /// L2 penalty on standardized coefficients; 0 gives OLS (a tiny jitter is
  /// still added for numerical rank safety).
  double l2 = 1e-6;

  static LinearParams from_json(const Json& j);
  Json to_json() const;
};

class LinearRegression : public Regressor {
 public:
  explicit LinearRegression(LinearParams params = {});

  void fit(const Dataset& data) override;
  void predict_batch(std::span<const double> x, std::size_t rows,
                     std::size_t cols, std::span<double> out) const override;
  bool is_fitted() const override { return fitted_; }
  std::string name() const override { return "linear"; }
  Json to_json() const override;
  void from_json(const Json& j) override;
  std::vector<double> feature_importances() const override;

  /// Coefficients in original (unstandardized) feature space.
  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }

 private:
  LinearParams params_;
  bool fitted_ = false;
  std::vector<double> coef_;
  double intercept_ = 0.0;
};

}  // namespace lts::ml

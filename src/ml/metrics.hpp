// Regression and ranking quality metrics.
#pragma once

#include <span>

namespace lts::ml {

double rmse(std::span<const double> truth, std::span<const double> pred);
double mae(std::span<const double> truth, std::span<const double> pred);

/// Coefficient of determination; can be negative for models worse than the
/// mean predictor.
double r2_score(std::span<const double> truth, std::span<const double> pred);

}  // namespace lts::ml

#include "ml/analysis.hpp"

#include <algorithm>
#include <numeric>

#include "ml/metrics.hpp"
#include "util/rng.hpp"

namespace lts::ml {

PermutationImportance permutation_importance(const Regressor& model,
                                             const Dataset& data,
                                             int repeats,
                                             std::uint64_t seed) {
  LTS_REQUIRE(model.is_fitted(), "permutation_importance: model not fitted");
  LTS_REQUIRE(data.size() >= 4, "permutation_importance: dataset too small");
  LTS_REQUIRE(repeats >= 1, "permutation_importance: repeats >= 1");

  PermutationImportance result;
  result.feature_names = data.feature_names();
  if (result.feature_names.empty()) {
    result.feature_names.resize(data.num_features());
  }

  result.baseline_rmse = rmse(data.y(), model.predict(data.x()));

  Rng rng(seed);
  Matrix working = data.x();
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    double total_increase = 0.0;
    for (int r = 0; r < repeats; ++r) {
      // Shuffle column f in `working` (Fisher–Yates on that column only).
      std::vector<double> column(data.size());
      for (std::size_t i = 0; i < data.size(); ++i) {
        column[i] = working(i, f);
      }
      rng.shuffle(column);
      for (std::size_t i = 0; i < data.size(); ++i) {
        working(i, f) = column[i];
      }
      total_increase += std::max(
          0.0, rmse(data.y(), model.predict(working)) - result.baseline_rmse);
      // Restore the column.
      for (std::size_t i = 0; i < data.size(); ++i) {
        working(i, f) = data.x()(i, f);
      }
    }
    result.importance.push_back(total_increase / repeats);
  }
  return result;
}

PartialDependence partial_dependence(const Regressor& model,
                                     const Dataset& data,
                                     std::size_t feature_index,
                                     int grid_points, std::size_t sample_rows,
                                     std::uint64_t seed) {
  LTS_REQUIRE(model.is_fitted(), "partial_dependence: model not fitted");
  LTS_REQUIRE(feature_index < data.num_features(),
              "partial_dependence: feature index out of range");
  LTS_REQUIRE(grid_points >= 2, "partial_dependence: need >= 2 grid points");

  PartialDependence result;
  result.feature = data.feature_names().empty()
                       ? std::to_string(feature_index)
                       : data.feature_names()[feature_index];

  // Quantile-spaced grid over the observed values.
  std::vector<double> values(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    values[i] = data.x()(i, feature_index);
  }
  std::sort(values.begin(), values.end());
  for (int g = 0; g < grid_points; ++g) {
    const double q = static_cast<double>(g) / (grid_points - 1);
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1));
    result.grid.push_back(values[idx]);
  }
  result.grid.erase(std::unique(result.grid.begin(), result.grid.end()),
                    result.grid.end());

  // Marginalize over a sample of rows.
  Rng rng(seed);
  std::vector<std::size_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  if (rows.size() > sample_rows) {
    rng.shuffle(rows);
    rows.resize(sample_rows);
  }
  std::vector<double> x;
  for (const double grid_value : result.grid) {
    double total = 0.0;
    for (const std::size_t row : rows) {
      x.assign(data.row(row).begin(), data.row(row).end());
      x[feature_index] = grid_value;
      total += model.predict_row(x);
    }
    result.response.push_back(total / static_cast<double>(rows.size()));
  }
  return result;
}

}  // namespace lts::ml

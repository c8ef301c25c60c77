#include "ml/metrics.hpp"

#include <cmath>

#include "util/common.hpp"
#include "util/stats.hpp"

namespace lts::ml {

double rmse(std::span<const double> truth, std::span<const double> pred) {
  LTS_REQUIRE(truth.size() == pred.size() && !truth.empty(),
              "rmse: bad input sizes");
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double d = truth[i] - pred[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(truth.size()));
}

double mae(std::span<const double> truth, std::span<const double> pred) {
  LTS_REQUIRE(truth.size() == pred.size() && !truth.empty(),
              "mae: bad input sizes");
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    acc += std::abs(truth[i] - pred[i]);
  }
  return acc / static_cast<double>(truth.size());
}

double r2_score(std::span<const double> truth, std::span<const double> pred) {
  LTS_REQUIRE(truth.size() == pred.size() && truth.size() >= 2,
              "r2_score: bad input sizes");
  const double m = mean(truth);
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - pred[i]) * (truth[i] - pred[i]);
    ss_tot += (truth[i] - m) * (truth[i] - m);
  }
  if (ss_tot <= 0.0) return ss_res <= 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace lts::ml

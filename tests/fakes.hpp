// Fakes the suites share: a fitted model that predicts one constant, a
// small Spark job, and the reference walk over a tree's node array.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "ml/model.hpp"
#include "ml/tree.hpp"
#include "spark/job.hpp"

namespace lts::test {

/// Fitted model that predicts 1.0 for every row: every candidate ties, so a
/// ranking is decided by stale demotion and the node-name tie-break alone,
/// independent of training.
class ConstantModel : public ml::Regressor {
 public:
  void fit(const ml::Dataset&) override {}
  void predict_batch(std::span<const double>, std::size_t rows, std::size_t,
                     std::span<double> out) const override {
    std::fill_n(out.begin(), rows, 1.0);
  }
  bool is_fitted() const override { return true; }
  std::string name() const override { return "constant"; }
  Json to_json() const override { return Json::object(); }
  void from_json(const Json&) override {}
};

/// A 1M-record sort on two executors.
inline spark::JobConfig small_job() {
  spark::JobConfig config;
  config.app = spark::AppType::kSort;
  config.input_records = 1000000;
  config.record_bytes = 200.0;
  config.executors = 2;
  config.validate();
  return config;
}

/// The reference walk over a node array, written out: from the root,
/// `x <= threshold` goes left and anything else (NaN included) goes right,
/// down to a leaf.
inline double walk(const std::vector<ml::TreeNode>& nodes,
                   std::span<const double> x) {
  std::size_t i = 0;
  while (!nodes[i].is_leaf()) {
    const ml::TreeNode& n = nodes[i];
    i = static_cast<std::size_t>(
        x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                               : n.right);
  }
  return nodes[i].value;
}

}  // namespace lts::test

// Dense row-major matrix and the small linear-algebra kernel the ML module
// needs (Cholesky solve for ridge regression). Deliberately minimal: LTS
// models are trees and small linear systems, not BLAS workloads.
#pragma once

#include <span>
#include <vector>

#include "util/common.hpp"

namespace lts::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  std::span<const double> row(std::size_t r) const;
  std::span<double> row(std::size_t r);

  /// Appends a row; fixes the column count on first push.
  void push_row(std::span<const double> values);

  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b for symmetric positive-definite A via Cholesky
/// factorization. A is consumed (factored in place). Throws lts::Error if A
/// is not positive definite.
std::vector<double> solve_cholesky(Matrix a, std::vector<double> b);

}  // namespace lts::ml

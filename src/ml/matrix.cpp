#include "ml/matrix.hpp"

#include <cmath>

namespace lts::ml {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  LTS_ASSERT(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  LTS_ASSERT(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::span<const double> Matrix::row(std::size_t r) const {
  LTS_ASSERT(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

std::span<double> Matrix::row(std::size_t r) {
  LTS_ASSERT(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

void Matrix::push_row(std::span<const double> values) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = values.size();
  }
  LTS_REQUIRE(values.size() == cols_, "Matrix: row width mismatch");
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

std::vector<double> solve_cholesky(Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  LTS_REQUIRE(a.cols() == n, "solve_cholesky: matrix not square");
  LTS_REQUIRE(b.size() == n, "solve_cholesky: dimension mismatch");

  // Factor A = L L^T, storing L in the lower triangle.
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    LTS_REQUIRE(diag > 0.0, "solve_cholesky: matrix not positive definite");
    const double ljj = std::sqrt(diag);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= a(i, k) * a(j, k);
      a(i, j) = v / ljj;
    }
  }
  // Forward solve L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= a(i, k) * b[k];
    b[i] = v / a(i, i);
  }
  // Back solve L^T x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double v = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= a(k, ii) * b[k];
    b[ii] = v / a(ii, ii);
  }
  return b;
}

}  // namespace lts::ml

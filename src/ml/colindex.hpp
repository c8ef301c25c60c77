// SortedColumns: per-feature sorted column indexes for exact greedy split
// finding — the training-side sibling of FlatEnsemble's serving layout.
//
// The naive CART/GBT split search re-gathers and re-std::sorts every
// candidate feature at every tree node, an O(nodes x features x n log n)
// pattern that dominates fit wall time once training runs inside the
// serving loop (core::OnlineTrainer). SortedColumns sorts each feature
// column ONCE per fit and then maintains node membership through the
// recursion sklearn-style: after a split, every column's segment is
// repartitioned IN PLACE and STABLY around the chosen threshold, so each
// node owns a contiguous, still-sorted slice [begin, end) of every column
// and the per-node scan degenerates to a linear sweep.
//
// Bit-identity with the per-node-sort implementation is load-bearing (the
// golden replay and the champion/challenger gate both compare serialized
// models byte for byte), and it falls out of two invariants:
//
//   1. The build comparators reproduce today's sort keys exactly — the
//      tree sorts (value, target) pairs, the GBT sorts (value, row) pairs —
//      so the root segment is the very sequence std::sort used to produce.
//      Ties beyond those keys are broken by row id, which cannot matter:
//      fully-tied entries are interchangeable in every downstream sum.
//   2. A stable partition of a sorted sequence leaves both halves sorted
//      and preserves tie order, so every descendant node's slice is again
//      exactly what a fresh gather + sort would have produced, and the
//      prefix-sum accumulation order — hence every gain, threshold, and
//      chosen split — is unchanged down to the last ULP.
//
// EXPERIMENTS.md ("Training-path overhaul") carries the full argument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/matrix.hpp"

namespace lts::ml {

/// Test hook: globally disables the ThreadPool fan-out of the per-feature
/// split scan and column builds (everything runs on the calling thread).
/// Results are bit-identical either way — the differential suite in
/// tests/train_test.cpp pins exactly that — so this is a scheduling knob,
/// never a correctness one. Defaults to enabled.
void set_parallel_split_scan(bool enabled);
bool parallel_split_scan_enabled();

/// Below this many occurrences a node's scan is not worth fanning out:
/// the pool submit/join overhead exceeds the linear sweep. Deep-tree nodes
/// are almost all below it; the wide nodes near the root are what matter.
inline constexpr std::size_t kParallelScanMinRows = 1024;

/// True when work of `n` occurrences across `cols` independent columns
/// should use ThreadPool::global() (respects the test hook above).
bool use_parallel_columns(std::size_t n, std::size_t cols);

class SortedColumns {
 public:
  /// Tree presort: one column per dataset feature over the given row
  /// OCCURRENCES (duplicates allowed — bootstrap bags), each sorted by
  /// (feature value, target, row). Matches DecisionTreeRegressor's
  /// per-node std::sort over (x, y) pairs.
  void build_by_value_target(const Matrix& x, const std::vector<double>& y,
                             std::span<const std::size_t> rows);

  /// GBT presort: one column per dataset feature over ALL dataset rows,
  /// each sorted by (feature value, row). Matches GradientBoostedTrees'
  /// per-node std::sort over (x, row) pairs. Built once per fit;
  /// per-round subsets are carved out with assign_filtered.
  void build_by_value_row(const Matrix& x);

  /// Rebuilds this index as the subsequence of `from` whose rows are
  /// marked in `keep` (indexed by dataset row id), restricted to the given
  /// feature ids — the per-boosting-round row/column subsample. A
  /// subsequence of a sorted column is sorted, so no re-sort happens.
  /// `kept` must equal the number of marked occurrences.
  void assign_filtered(const SortedColumns& from,
                       const std::vector<unsigned char>& keep,
                       std::size_t kept,
                       std::span<const std::size_t> features);

  /// Rebuilds this index as the bootstrap expansion of `from` (an index
  /// over every dataset row, one occurrence each): occurrence k of every
  /// column is emitted mult[row_k] times, in `from`'s order. Duplicates of
  /// a row are fully tied — equal on every sort key — so the streamed
  /// order is exactly what gathering the bag and sorting it would produce,
  /// at O(rows + total) per column instead of O(total log total). This is
  /// what lets a forest sort the window once and stamp out per-tree
  /// indexes for every bag. `total` must equal the sum of `mult`.
  void assign_bootstrap(const SortedColumns& from,
                        std::span<const std::uint32_t> mult,
                        std::size_t total);

  /// Occurrences per column.
  std::size_t size() const { return n_; }
  std::size_t num_cols() const { return cols_; }

  /// Column `c` as parallel (value, row) arrays. For build_by_* indexes,
  /// column c is dataset feature c; for assign_filtered indexes, column c
  /// is the c-th entry of the feature list passed in.
  const double* x_col(std::size_t c) const { return x_.data() + c * n_; }
  const std::uint32_t* row_col(std::size_t c) const {
    return row_.data() + c * n_;
  }

  /// Stable in-place two-way partition of segment [begin, end) of EVERY
  /// column around `x <= threshold` on `split_col`. Returns the boundary
  /// (begin + number of occurrences that went left), which must equal the
  /// row array's std::partition midpoint — callers assert exactly that.
  /// The split column itself is untouched: x is its primary sort key, so
  /// its left side is already exactly the segment prefix. Scratch is
  /// reused across calls; nothing allocates in the steady state.
  std::size_t repartition(std::size_t begin, std::size_t end,
                          std::size_t split_col, double threshold);

  /// True when `row` went left in the most recent repartition() — the same
  /// boolean `x(row, split_col) <= threshold` evaluates to, off bitwise
  /// the same doubles, so a std::partition of the row array under this
  /// predicate behaves exactly like one under the matrix lookup (without
  /// the scattered matrix reads).
  bool went_left(std::size_t row) const { return goes_left_[row] != 0; }

 private:
  std::size_t n_ = 0;          // occurrences per column
  std::size_t cols_ = 0;       // number of columns
  std::size_t num_rows_ = 0;   // dataset rows (sizes the goes_left_ mask)
  std::vector<double> x_;             // [c * n_ + k], sorted per column
  std::vector<std::uint32_t> row_;    // dataset row of each occurrence
  std::vector<double> tmp_x_;         // repartition right-side scratch
  std::vector<std::uint32_t> tmp_row_;
  std::vector<unsigned char> goes_left_;  // indexed by dataset row id
};

}  // namespace lts::ml

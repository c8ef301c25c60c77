#include "ml/flat.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

namespace lts::ml {

void FlatEnsemble::clear() {
  nodes_.clear();
  value_.clear();
  tree_base_.clear();
  depths_.clear();
  init_ = 0.0;
  divisor_ = 1.0;
}

void FlatEnsemble::add_tree(std::span<const TreeNode> nodes) {
  LTS_REQUIRE(!nodes.empty() && nodes.size() <= kMaxTreeNodes,
              "FlatEnsemble: a tree needs 1 to " +
                  std::to_string(kMaxTreeNodes) + " nodes, got " +
                  std::to_string(nodes.size()));
  tree_base_.push_back(nodes_.size());
  std::vector<std::int32_t> depth_of(nodes.size(), 0);
  std::int32_t max_depth = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const TreeNode& n = nodes[i];
    FlatNode flat;
    if (n.is_leaf()) {
      // Self-looping leaf: extra fixed-depth iterations re-select the
      // leaf via an in-bounds load of feature 0 (x <= +inf goes left;
      // a NaN feature goes right; both point back here).
      flat.threshold = std::numeric_limits<double>::infinity();
      flat.meta = FlatNode::pack(0, i, i);
    } else {
      flat.threshold = n.threshold;
      flat.meta = FlatNode::pack(static_cast<std::uint64_t>(n.feature),
                                 static_cast<std::uint64_t>(n.left),
                                 static_cast<std::uint64_t>(n.right));
      const auto l = static_cast<std::size_t>(n.left);
      const auto r = static_cast<std::size_t>(n.right);
      depth_of[l] = depth_of[i] + 1;
      depth_of[r] = depth_of[i] + 1;
      max_depth = std::max(max_depth, depth_of[l]);
    }
    nodes_.push_back(flat);
    value_.push_back(n.value);
  }
  depths_.push_back(max_depth);
}

void FlatEnsemble::predict(const double* x, std::size_t rows,
                           std::size_t cols, double* out) const {
  walk_block<Fold::kPredict>(x, rows, cols, out);
}

void FlatEnsemble::accumulate(const double* x, std::size_t rows,
                              std::size_t cols, double* inout) const {
  walk_block<Fold::kAccumulate>(x, rows, cols, inout);
}

void FlatEnsemble::tree_values(const double* x, std::size_t rows,
                               std::size_t cols, double* out) const {
  walk_block<Fold::kPerTree>(x, rows, cols, out);
}

template <FlatEnsemble::Fold kFold>
void FlatEnsemble::walk_block(const double* x, std::size_t rows,
                              std::size_t cols, double* out) const {
  // Row blocking keeps a batch of rows cache-resident while trees stream
  // past them; per row, trees still accumulate in tree order (the loop over
  // trees is outside the accumulation into out[r]), so the sum order — and
  // therefore every bit of the result — matches the pointer walk.
  constexpr std::size_t kBlock = 128;
  std::uint32_t idx[kBlock];         // tree-local node index per lane
  std::uint32_t lanes[2][kBlock];    // active-lane lists, swapped per step
  const double* xrow[kBlock];  // per-lane row base, hoisted out of the walk
  const std::size_t n_trees = tree_base_.size();
  for (std::size_t r0 = 0; r0 < rows; r0 += kBlock) {
    const std::size_t bn = std::min(kBlock, rows - r0);
    for (std::size_t i = 0; i < bn; ++i) {
      if constexpr (kFold == Fold::kPredict) out[r0 + i] = init_;
      xrow[i] = x + (r0 + i) * cols;
    }
    for (std::size_t t = 0; t < n_trees; ++t) {
      const std::size_t base = tree_base_[t];
      const FlatNode* const tree = nodes_.data() + base;
      const double* const values = value_.data() + base;
      const std::int32_t depth = depths_[t];
      // A lane whose row has reached its leaf would only re-select that
      // leaf on every remaining step (self-loop), so each step rebuilds
      // the active list and drops parked lanes — in unbalanced trees the
      // mean leaf depth sits well below the max, and once a lane parks,
      // no later step can move it again (leaves self-loop), so dropping
      // is exact, not heuristic. idx[] keeps the final leaf of every
      // lane for the value gather below.
      std::uint32_t* active = lanes[0];
      std::uint32_t* parked = lanes[1];
      std::size_t na = bn;
      for (std::size_t i = 0; i < bn; ++i) {
        idx[i] = 0;  // local root
        active[i] = static_cast<std::uint32_t>(i);
      }
      for (std::int32_t step = 0; step < depth && na != 0; ++step) {
        std::size_t na2 = 0;
        for (std::size_t j = 0; j < na; ++j) {
          const std::uint32_t lane = active[j];
          const std::uint32_t cur = idx[lane];
          const FlatNode& n = tree[cur];
          const std::uint64_t m = n.meta;
          const double xv = xrow[lane][m & 0xffff];
          const auto left = static_cast<std::uint32_t>((m >> 16) & 0xffffff);
          const auto right = static_cast<std::uint32_t>(m >> 40);
          // Mask-select instead of `?:`: the ternary tempts the compiler
          // into a data-dependent branch, and a 50/50 split direction
          // makes every step a likely mispredict. The comparison itself
          // is unchanged (NaN fails <=, so NaN still goes right), only
          // the selection is arithmetic. Self-looping leaves keep the
          // walk in bounds. The lane survives into the next step's list
          // with the same branchless discipline: an unconditional store
          // plus a conditional advance of the list length.
          const std::uint32_t go =
              0U - static_cast<std::uint32_t>(xv <= n.threshold);
          const std::uint32_t next = ((left ^ right) & go) ^ right;
          idx[lane] = next;
          parked[na2] = lane;
          na2 += (next != cur);
        }
        std::swap(active, parked);
        na = na2;
      }
      for (std::size_t i = 0; i < bn; ++i) {
        if constexpr (kFold == Fold::kPerTree) {
          out[(r0 + i) * n_trees + t] = values[idx[i]];
        } else {
          out[r0 + i] += values[idx[i]];
        }
      }
    }
    // Division by the default 1.0 is exact, so the non-forest cases pay no
    // precision (or equivalence) cost for the unconditional divide.
    if constexpr (kFold == Fold::kPredict) {
      for (std::size_t i = 0; i < bn; ++i) out[r0 + i] /= divisor_;
    }
  }
}

}  // namespace lts::ml

// FlatEnsemble: the one walk a tree ensemble predicts through.
//
// The random forest and the GBT keep their trees as TreeNode arrays (what
// training grows and the model file stores) and pack them into one
// FlatEnsemble at the end of fit and of from_json; every prediction they
// make walks it. DecisionTreeRegressor's pointer walk is the reference it
// is tested against. All trees share one contiguous array of 16-byte nodes
// — the split threshold plus a 64-bit word holding the feature (16 bits)
// and the tree-LOCAL left and right child indices (24 bits each) — and a
// block of rows walks one tree at a time in a branchless inner loop:
//
//   - leaves are rewritten to self-loops (left == right == self) with probe
//     feature 0 and threshold +inf, so iterating each tree up to `depth`
//     times lands every row on its leaf with only in-bounds loads and no
//     per-step is_leaf branch; a block whose rows have all parked exits the
//     depth loop early (detected with one XOR-OR per lane, no extra loads);
//   - leaf values live in a parallel array read once per (tree, row) after
//     the walk, keeping the per-step working set at 16 bytes per node;
//   - per row the tree values accumulate in tree order starting from
//     `init`, then divide by `divisor`: the forest's (t0 + t1 + ...)/n and
//     the GBT's ((base + t0) + t1) + ... add the walk's leaf values in the
//     same order, so predictions are bit-identical, not just close.
//
// Derived state, never serialized. add_tree throws an lts::Error on a tree
// past kMaxTreeNodes (beyond any tree grown from fewer than ~8.4 M rows).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/tree.hpp"

namespace lts::ml {

class FlatEnsemble {
 public:
  /// One packed tree node: 16 bytes, 16-byte aligned, one cache line holds
  /// four. The feature (16 bits) and the tree-local left and right child
  /// indices (24 bits each; node 0 is the root) share one 64-bit word, so
  /// the walk reads a whole node in two loads (threshold + meta) instead of
  /// four; on a two-load-port core the per-step cost is load-bound and this
  /// matters.
  struct alignas(16) FlatNode {
    double threshold = 0.0;
    std::uint64_t meta = 0;  // feature | left << 16 | right << 40

    static std::uint64_t pack(std::uint64_t feature, std::uint64_t left,
                              std::uint64_t right) {
      return feature | (left << 16) | (right << 40);
    }
  };

  /// Feature indices must be below this (the packed 16-bit field).
  static constexpr std::size_t kMaxFeatures = std::size_t{1} << 16;
  /// Largest tree the packed 24-bit child indices can hold.
  static constexpr std::size_t kMaxTreeNodes = (std::size_t{1} << 24) - 1;

  void clear();

  /// Appends one tree; throws an lts::Error unless it has 1 to kMaxTreeNodes
  /// nodes. Node 0 is the root, and children follow their parent (as build()
  /// grows them and check_tree_nodes enforces on load), which the single-pass
  /// depth computation relies on.
  void add_tree(std::span<const TreeNode> nodes);

  /// out[r] = (init + sum of tree leaf values, in tree order) / divisor.
  void set_init(double init) { init_ = init; }
  void set_divisor(double divisor) { divisor_ = divisor; }

  std::size_t num_trees() const { return tree_base_.size(); }

  /// Batched prediction over a row-major feature block: `rows` vectors of
  /// `cols` doubles each, contiguous at `x`; one prediction per row written
  /// to `out`. No feature is loaded when every tree is a single leaf, so
  /// cols may be 0 only in that degenerate case.
  void predict(const double* x, std::size_t rows, std::size_t cols,
               double* out) const;

  /// Batched accumulate: inout[r] += leaf value of every tree, in tree
  /// order — predict() without the init seed and the divisor, for callers
  /// folding this ensemble into a running total (the GBT's per-round
  /// prediction update). The per-row addition order is exactly
  /// `inout[r] += tree0; inout[r] += tree1; ...`.
  void accumulate(const double* x, std::size_t rows, std::size_t cols,
                  double* inout) const;

  /// Per-tree leaf values: out[r * num_trees() + t] is the leaf tree t
  /// selects for row r, unsummed — what the forest's spread is made of.
  void tree_values(const double* x, std::size_t rows, std::size_t cols,
                   double* out) const;

 private:
  /// What the walk does with each leaf value, per entry point above.
  enum class Fold { kPredict, kAccumulate, kPerTree };

  /// The batched walker behind all three entry points.
  template <Fold kFold>
  void walk_block(const double* x, std::size_t rows, std::size_t cols,
                  double* out) const;

  std::vector<FlatNode> nodes_;       // all trees, concatenated
  std::vector<double> value_;         // leaf payloads, parallel to nodes_
  std::vector<std::size_t> tree_base_;  // per-tree offset into nodes_
  std::vector<std::int32_t> depths_;  // per-tree max root-to-leaf depth
  double init_ = 0.0;
  double divisor_ = 1.0;
};

}  // namespace lts::ml

// R8: hot-path allocation. The scale arc's budgets (max-min rate solve at
// 100k flows, batched serving throughput) assume the steady state allocates
// nothing: scratch is reused across calls and vectors are pre-reserved. An
// allocator call (new, make_unique/make_shared, std::function's type-erased
// storage) or a growth-doubling push_back loop inside the declared hot-path
// functions turns O(1) amortized work into latency spikes under load.
//
// A push_back inside a loop is accepted when the same container saw a
// .reserve( earlier in the function body; anything else needs an
// alloc-ok(...) waiver stating why the allocation is bounded (e.g. a
// persistent scratch vector whose capacity survives clear()).
#include <regex>
#include <set>
#include <vector>

#include "lts_lint/rules.hpp"

namespace lts::lint {
namespace {

bool is_hot(const FunctionDef& fd) {
  static const std::set<std::string> kHot = {
      "recompute_rates",  "recompute_rates_core",
      "fill_flows",       "predict_batch",
      "schedule_many",
      "schedule_many_from_snapshot",
      "schedule_batch",
      // Training hot path: these run once per tree node (split search) or
      // once per boosting round, inside the serve-time retraining loop.
      "best_split",       "build_node",
      "boost_one_round"};
  if (kHot.count(fd.name) > 0) return true;
  // The simulator's per-event path: scheduling a record, the loop that pops
  // it and the branch that dispatches it; and a Spark app's steps, which
  // park and resume as records (no closure or counter per step).
  static const std::set<std::string> kEngineHot = {
      "schedule_at", "schedule_in", "step", "run", "dispatch"};
  static const std::set<std::string> kSparkAppHot = {
      "on_event", "park", "schedule", "start_flow", "run_cpu"};
  // The flat kernel is the only walk a tree ensemble predicts through:
  // every batch, every single row and the forest's per-tree spread.
  static const std::set<std::string> kFlatHot = {
      "predict", "accumulate", "tree_values", "walk_block"};
  return (fd.class_name == "Engine" && kEngineHot.count(fd.name) > 0) ||
         (fd.class_name == "SparkApp" && kSparkAppHot.count(fd.name) > 0) ||
         (fd.class_name == "FlatEnsemble" && kFlatHot.count(fd.name) > 0);
}

}  // namespace

void check_alloc(RuleContext& ctx) {
  static const std::regex kNew(R"(\bnew\b)");
  static const std::regex kMake(R"(std::make_(?:unique|shared)\s*<)");
  static const std::regex kFunction(R"(std::function\s*<)");
  static const std::regex kLoop(R"(\b(?:for|while)\s*\()");
  static const std::regex kPushBack(
      R"((\b[A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*\.\s*(?:push_back|emplace_back)\s*\()");

  for (const FunctionDef& fd : ctx.file->functions) {
    if (!is_hot(fd)) continue;
    if (fd.body_begin == 0 || fd.body_end > ctx.lines().size()) continue;

    // Containers .reserve()d so far in this body, by full access path.
    std::set<std::string> reserved;
    static const std::regex kReserve(
        R"((\b[A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*(?:\.|->)\s*reserve\s*\()");

    // Loop nesting: a pending for/while attaches to its next '{'; braceless
    // single-line loops are caught by the same-line check below.
    std::vector<int> loop_depths;
    int depth = 0;
    bool pending_loop = false;

    for (std::size_t l = fd.body_begin; l <= fd.body_end; ++l) {
      const std::string& code = ctx.lines()[l - 1].code;

      for (auto it = std::sregex_iterator(code.begin(), code.end(), kReserve);
           it != std::sregex_iterator(); ++it) {
        reserved.insert((*it)[1].str());
      }

      if (std::regex_search(code, kNew)) {
        ctx.report(l, "R8",
                   std::string("allocator call (new) inside hot path ") +
                       fd.name + ": preallocate outside the steady state");
      }
      if (std::regex_search(code, kMake)) {
        ctx.report(l, "R8",
                   std::string("make_unique/make_shared inside hot path ") +
                       fd.name + ": heap allocation per call; hoist to setup");
      }
      if (std::regex_search(code, kFunction)) {
        ctx.report(l, "R8",
                   std::string("std::function constructed inside hot path ") +
                       fd.name +
                       ": type-erased storage may allocate; take a template "
                       "or function_ref-style parameter instead");
      }

      const bool line_opens_loop = std::regex_search(code, kLoop);
      const bool in_loop = !loop_depths.empty() || line_opens_loop;
      if (in_loop) {
        for (auto it =
                 std::sregex_iterator(code.begin(), code.end(), kPushBack);
             it != std::sregex_iterator(); ++it) {
          const std::string name = (*it)[1].str();
          if (reserved.count(name) > 0) continue;
          ctx.report(l, "R8",
                     "un-reserved " + name + ".push_back in a loop inside "
                     "hot path " + fd.name + ": growth reallocation in the "
                     "steady state; reserve() up front or reuse persistent "
                     "scratch (waive with alloc-ok if capacity is retained)");
        }
      }

      if (line_opens_loop) pending_loop = true;
      for (char c : code) {
        if (c == '{') {
          ++depth;
          if (pending_loop) {
            loop_depths.push_back(depth);
            pending_loop = false;
          }
        } else if (c == '}') {
          while (!loop_depths.empty() && loop_depths.back() >= depth) {
            loop_depths.pop_back();
          }
          --depth;
        }
      }
      if (pending_loop && code.find(';') != std::string::npos &&
          code.find('{') == std::string::npos) {
        pending_loop = false;  // braceless loop body ended on this line
      }
    }
  }
}

}  // namespace lts::lint

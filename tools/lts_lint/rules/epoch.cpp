// R6: invalidation protocol. The max-min solver caches rates behind
// FlowManager's dirty flag, so every *public* FlowManager member function
// that mutates flow or link state must acknowledge the mutation — mark the
// cache dirty — or the solver serves stale rates. Private helpers are
// exempt: they run inside a public mutator that owns the acknowledgment
// (the cross-file access index is what makes that distinction possible).
//
// The scan covers namespace-level definitions (out-of-line members), which
// is where the repo convention keeps mutators; an inline mutator hidden in
// a class body is not seen, so FlowManager keeps its mutations outlined.
#include <regex>

#include "lts_lint/rules.hpp"

namespace lts::lint {
namespace {

constexpr const char* kClass = "FlowManager";

/// First guarded-member mutation on `code`, or "" if none. Mutations:
/// assignment/compound assignment, ++/--, subscript assignment, and
/// mutating container member calls.
std::string mutated_member(const std::string& code) {
  static const std::regex kGuarded(
      R"(^(slots_|free_slots_|by_id_|path_arena_|live_path_words_)$)");
  static const std::regex kAssign(
      R"((\b[A-Za-z_]\w*_)\s*(?:\[[^\]]*\]\s*)?[+\-*/|&^]?=(?!=))");
  static const std::regex kPreIncDec(R"((?:\+\+|--)\s*([A-Za-z_]\w*_)\b)");
  static const std::regex kPostIncDec(R"((\b[A-Za-z_]\w*_)\s*(?:\+\+|--))");
  static const std::regex kCallMut(
      R"((\b[A-Za-z_]\w*_)\s*\.\s*(?:push_back|emplace_back|emplace|insert|erase|clear|resize|pop_back|assign)\s*\()");
  for (const std::regex* re : {&kAssign, &kPreIncDec, &kPostIncDec, &kCallMut}) {
    auto begin = std::sregex_iterator(code.begin(), code.end(), *re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1].str();
      if (std::regex_match(name, kGuarded)) return name;
    }
  }
  return "";
}

}  // namespace

void check_epoch(RuleContext& ctx) {
  static const std::regex kAck(
      R"(mark_dirty\s*\(|invalidate_rates\s*\(|dirty_\s*=[^=])");
  for (const FunctionDef& fd : ctx.file->functions) {
    if (fd.class_name != kClass) continue;
    if (fd.name == fd.class_name) continue;  // construction precedes observers

    // Private/protected helpers mutate under a public mutator that owns the
    // acknowledgment. Unknown access (class or function missing from the
    // index) is treated as public: the rule fails closed.
    const ClassInfo* ci = ctx.project->find_class(fd.class_name);
    if (ci != nullptr) {
      const MemberFunction* mf = ci->function(fd.name);
      if (mf != nullptr && mf->access != "public") continue;
    }

    std::size_t first_mutation = 0;
    std::string member;
    bool acked = false;
    for (std::size_t l = fd.body_begin; l <= fd.body_end &&
                                        l <= ctx.lines().size();
         ++l) {
      const std::string& code = ctx.lines()[l - 1].code;
      if (first_mutation == 0) {
        member = mutated_member(code);
        if (!member.empty()) first_mutation = l;
      }
      if (!acked && std::regex_search(code, kAck)) acked = true;
    }
    if (first_mutation != 0 && !acked) {
      ctx.report(first_mutation, "R6",
                 std::string(kClass) + "::" + fd.name +
                     " mutates rate-cached state ('" + member +
                     "') without acknowledging it: call mark_dirty() (or "
                     "invalidate_rates()) so cached rates are recomputed");
    }
  }
}

}  // namespace lts::lint

// R6: epoch/invalidation protocol. The batched serving path (PR 6) caches
// feature snapshots keyed on Tsdb::epoch(), and the max-min solver (PR 4/7)
// caches rates behind FlowManager's dirty flag. Every *public* member
// function that mutates the guarded state must acknowledge the mutation —
// bump the epoch or mark the cache dirty — or downstream consumers serve
// stale data. Private helpers are exempt: they run inside a public mutator
// that owns the acknowledgment (the cross-file access index is what makes
// that distinction possible).
//
// The scan covers namespace-level definitions (out-of-line members), which
// is where the repo convention keeps mutators; an inline mutator hidden in
// a class body is not seen, so protocol classes keep mutations outlined.
#include <regex>

#include "lts_lint/rules.hpp"

namespace lts::lint {
namespace {

struct Protocol {
  const char* cls;
  std::regex guarded;  // matches a guarded member's full name
  std::regex ack;      // acknowledgment pattern, searched over the body
  const char* fix;     // what the diagnostic tells the author to call
};

const std::vector<Protocol>& protocols() {
  static const std::vector<Protocol> kProtocols = [] {
    std::vector<Protocol> p;
    p.push_back({"Tsdb",
                 std::regex(R"(^(series_|by_name_|num_series_|samples_appended_|samples_dropped_)$)"),
                 std::regex(R"(\+\+\s*epoch_|epoch_\s*\+\+|bump_epoch\s*\()"),
                 "++epoch_ (or bump_epoch())"});
    p.push_back({"NodeExporter",
                 std::regex(R"(^(silenced_|report_delay_)$)"),
                 std::regex(R"(bump_epoch\s*\()"),
                 "tsdb_.bump_epoch()"});
    p.push_back({"FlowManager",
                 std::regex(R"(^(slots_|free_slots_|by_id_|path_arena_|live_path_words_)$)"),
                 std::regex(R"(mark_dirty\s*\(|invalidate_rates\s*\(|dirty_\s*=[^=])"),
                 "mark_dirty() (or invalidate_rates())"});
    return p;
  }();
  return kProtocols;
}

/// First guarded-member mutation on `code`, or "" if none. Mutations:
/// assignment/compound assignment, ++/--, subscript assignment, and
/// mutating container member calls.
std::string mutated_member(const std::string& code, const Protocol& proto) {
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
      if (std::regex_match(name, proto.guarded)) return name;
    }
  }
  return "";
}

}  // namespace

void check_epoch(RuleContext& ctx) {
  for (const FunctionDef& fd : ctx.file->functions) {
    if (fd.class_name.empty()) continue;
    const Protocol* proto = nullptr;
    for (const Protocol& p : protocols()) {
      if (fd.class_name == p.cls) {
        proto = &p;
        break;
      }
    }
    if (proto == nullptr) continue;
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
        member = mutated_member(code, *proto);
        if (!member.empty()) first_mutation = l;
      }
      if (!acked && std::regex_search(code, proto->ack)) acked = true;
    }
    if (first_mutation != 0 && !acked) {
      ctx.report(first_mutation, "R6",
                 std::string(fd.class_name) + "::" + fd.name +
                     " mutates epoch-guarded state ('" + member +
                     "') without acknowledging it: call " + proto->fix +
                     " so cached snapshots/rates are invalidated");
    }
  }
}

}  // namespace lts::lint

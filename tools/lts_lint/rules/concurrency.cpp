// R4 (concurrency hygiene) and R5 (header hygiene), ported from v1.
#include <regex>

#include "lts_lint/rules.hpp"

namespace lts::lint {
namespace {

bool thread_pool_path(const std::string& p) {
  return starts_with(p, "src/util/thread_pool.");
}

}  // namespace

void check_concurrency(RuleContext& ctx) {
  if (thread_pool_path(ctx.path())) return;  // the sanctioned implementation
  static const std::regex kRawThread(R"(std::j?thread\b(?!::))");
  static const std::regex kDetach(R"(\.\s*detach\s*\()");
  static const std::regex kParallelForCall(R"(\bparallel_for\s*\()");

  for (std::size_t i = 0; i < ctx.lines().size(); ++i) {
    const std::string& code = ctx.lines()[i].code;
    if (code.empty()) continue;
    if (std::regex_search(code, kRawThread)) {
      ctx.report(i + 1, "R4",
                 "raw std::thread outside src/util/thread_pool: use "
                 "ThreadPool (or justify with // lts-lint: thread-ok(...))");
    }
    if (std::regex_search(code, kDetach)) {
      ctx.report(i + 1, "R4",
                 "detach() leaks a thread past its owner's lifetime: join "
                 "via ThreadPool futures instead");
    }
    if (std::regex_search(code, kParallelForCall)) {
      // Join the argument list (bounded lookahead) to see the lambda's
      // capture list even when it starts on a later line.
      std::string call = code;
      for (std::size_t j = i + 1; j < ctx.lines().size() && j <= i + 12; ++j) {
        if (call.find("[&") != std::string::npos ||
            call.find('{') != std::string::npos ||
            call.find(';') != std::string::npos) {
          break;
        }
        call += ctx.lines()[j].code;
      }
      if (call.find("[&") == std::string::npos) continue;  // no shared capture
      if (ctx.consume_token("shared-guarded", i + 1)) continue;
      ctx.report(i + 1, "R4",
                 "parallel_for lambda captures by reference: declare the "
                 "sharing discipline with // lts-lint: "
                 "shared-guarded(mutex|atomic|partitioned)");
    }
  }
}

void check_hygiene(RuleContext& ctx) {
  if (!is_header_path(ctx.path())) return;
  bool guarded = false;
  for (const SourceLine& l : ctx.lines()) {
    if (l.code.find("#pragma once") != std::string::npos ||
        l.code.find("#ifndef") != std::string::npos) {
      guarded = true;
      break;
    }
    // Only leading blank/comment lines may precede the guard.
    if (!is_blank(l.code)) break;
  }
  if (!guarded) {
    ctx.report(1, "R5",
               "header lacks #pragma once (or an include guard) before its "
               "first declaration");
  }
  static const std::regex kUsingNamespace(R"(\busing\s+namespace\b)");
  for (std::size_t i = 0; i < ctx.lines().size(); ++i) {
    if (std::regex_search(ctx.lines()[i].code, kUsingNamespace)) {
      ctx.report(i + 1, "R5",
                 "`using namespace` in a header leaks into every includer");
    }
  }
}

}  // namespace lts::lint

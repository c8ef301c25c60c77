// lts_lint rule registry: every rule is a (metadata, check) pair over the
// shared project model, so the CLI's --list-rules/--explain output, the
// SARIF rule table, and the waiver-token validation all come from one
// source of truth.
//
//   R1  nondeterminism sources in sim/decision code
//   R2  unordered containers in determinism-critical dirs (+ cross-file
//       iteration over a companion header's unordered members)
//   R3  obs instrumentation pattern in hot paths
//   R4  concurrency hygiene (raw threads, detach, unguarded [&] captures)
//   R5  header hygiene (#pragma once, using namespace)
//   R6  invalidation protocol: public mutators of FlowManager flow/link
//       state must mark the rate cache dirty
//   R7  floating-point reduction order: std::reduce/transform_reduce,
//       FP accumulation inside parallel_for lambdas, and std::accumulate
//       over unordered iteration in determinism-critical dirs
//   R8  hot-path allocation: new/make_unique/make_shared/std::function
//       construction and un-reserved push_back loops inside the declared
//       hot-path function list
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lts_lint/model.hpp"

namespace lts::lint {

/// Metadata driving --list-rules, --explain, and the SARIF rule table.
struct RuleInfo {
  std::string id;         // "R1".."R8"
  std::string name;       // short kebab-case handle
  std::string summary;    // one line, for --list-rules and SARIF
  std::string rationale;  // why the invariant matters (--explain)
  std::string example;    // an example violating line (--explain)
  std::string waiver;     // waiver token, "" when the rule is not waivable
};

/// Per-file rule pass state. Waivers are copied out of the FileModel so a
/// pass can mark them used without mutating the shared project model.
struct RuleContext {
  const FileModel* file = nullptr;
  const ProjectModel* project = nullptr;
  const FileModel* companion = nullptr;  // paired header, may be null
  std::vector<Waiver> waivers;
  std::vector<Diagnostic> diags;

  const std::string& path() const { return file->path; }
  const std::vector<SourceLine>& lines() const { return file->lines; }

  /// Reports a violation of `rule` at 1-based `line` unless a matching
  /// waiver targets that line.
  void report(std::size_t line, const std::string& rule,
              const std::string& message);

  /// True if a waiver with `token` targets `line` (and marks it used).
  bool consume_token(const std::string& token, std::size_t line);
};

struct Rule {
  RuleInfo info;
  void (*check)(RuleContext&);
};

/// The registered rules, in id order.
const std::vector<Rule>& rule_registry();

/// Waiver token -> rule id, derived from the registry.
const std::map<std::string, std::string>& waiver_tokens();

/// Registry lookup by id or name; nullptr when unknown.
const Rule* find_rule(const std::string& id_or_name);

// Individual rule passes (one translation unit per family under rules/).
void check_determinism(RuleContext& ctx);    // R1
void check_ordering(RuleContext& ctx);       // R2
void check_obs(RuleContext& ctx);            // R3
void check_concurrency(RuleContext& ctx);    // R4
void check_hygiene(RuleContext& ctx);        // R5
void check_epoch(RuleContext& ctx);          // R6
void check_fp_order(RuleContext& ctx);       // R7
void check_alloc(RuleContext& ctx);          // R8

/// Runs every registered rule over `file` within `project`, appends
/// waiver-syntax and (optionally) waiver-unused diagnostics, and returns
/// the result sorted by (path, line, rule).
std::vector<Diagnostic> run_rules(const FileModel& file,
                                  const ProjectModel& project,
                                  bool check_unused_waivers);

}  // namespace lts::lint

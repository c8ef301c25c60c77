// lts_lint: project-specific static analysis for determinism, concurrency,
// and caching invariants.
//
// The simulator is only a valid training-data generator if identical seeds
// yield identical telemetry traces and labels (the property the paper's
// Table 4 accuracy numbers rest on). Golden-replay tests catch determinism
// regressions after the fact; this linter rejects the *sources* of
// nondeterminism — and, since v2, violations of the cross-file caching
// protocols the scale arc introduced — at review time.
//
// v2 is a rule registry over a shared project model (tools/lts_lint/model):
// per-file token streams with comments/strings stripped, plus a repo-wide
// index of class members (with access), namespace-level function
// definitions, and the include graph. Rules R1–R5 are the v1 single-file
// checks; R6–R8 are cross-file invariant rules that read the index:
//
//   R1  no nondeterminism sources in sim/decision code under src/
//   R2  no unordered containers in determinism-critical dirs
//   R3  obs instrumentation pattern in hot paths (simcore, net)
//   R4  concurrency hygiene (ThreadPool only; declared sharing disciplines)
//   R5  header hygiene (#pragma once, no using-namespace)
//   R6  invalidation protocol: public mutators of FlowManager flow/link
//       state must mark the rate cache dirty
//   R7  FP reduction order: no std::reduce, no shared FP accumulation in
//       parallel_for lambdas, no accumulate over unordered iteration
//   R8  hot-path allocation: no allocator calls or un-reserved push_back
//       loops in the declared hot-path functions
//
// Violations are waivable per line with a justified annotation of the form
// "lts-lint" + ": <token>(<justification>)" in a comment (spelled out
// verbatim would register as a malformed waiver on this very file), where
// <token> is one of nondeterminism-ok (R1), ordered-ok (R2), obs-gated
// (R3), thread-ok / shared-guarded (R4), epoch-ok (R6), fp-order-ok (R7),
// alloc-ok (R8). The annotation sits on the flagged line or on a standalone
// comment line directly above it. Malformed waivers are diagnosed as
// `waiver-syntax`, waivers that suppress nothing as `waiver-unused`.
//
// See rules.hpp for the registry (metadata drives --list-rules, --explain,
// and the SARIF rule table) and output.hpp for formats and baseline diffs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lts_lint/model.hpp"
#include "lts_lint/output.hpp"

namespace lts::lint {

struct Options {
  /// Diagnose well-formed waivers that suppressed no violation.
  bool check_unused_waivers = true;
  /// Worker parallelism for lint_tree: 0 = the process-wide ThreadPool,
  /// 1 = fully serial, N = a dedicated N-worker pool. Output is
  /// byte-identical across all settings.
  std::size_t jobs = 0;
};

/// Lints `content` as if it lived at repo-relative `rel_path` (the path
/// drives rule scoping). `companion` is the text of the paired header for a
/// .cpp file (empty if none): declarations there feed the R2 iteration
/// check, the R3 instrument-name table, and the R6 member-access index.
std::vector<Diagnostic> lint_text(const std::string& rel_path,
                                  const std::string& content,
                                  const std::string& companion = "",
                                  const Options& opts = {});

/// Walks src/, tools/, bench/, and tests/ under `root`, linting every
/// .cpp/.hpp/.h/.cc file over a shared project model (each file is read and
/// parsed exactly once; companion headers are looked up in the model, not
/// re-read). Skips lint_fixtures (seeded violations used to test the rules)
/// and build directories. Per-file passes run on the ThreadPool; results
/// are merged in path order then sorted by (path, line, rule), so output is
/// deterministic and independent of worker count.
std::vector<Diagnostic> lint_tree(const std::string& root,
                                  const Options& opts = {});

}  // namespace lts::lint

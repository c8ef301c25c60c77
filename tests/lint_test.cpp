// Tests for tools/lts_lint: every rule R1-R8 must fire on its seeded
// fixture with the right rule id, every waivable rule must be silenceable
// by a justified waiver, malformed and stale waivers must be diagnosed,
// the cross-file index must resolve companions and member access through
// the fixture tree, parallel lint_tree must match serial byte for byte,
// baseline diffs must suppress exactly the accepted findings, and the
// repository itself must lint clean (the integration guarantee the CI
// lint job enforces).
//
// Fixtures live in tests/lint_fixtures/ and are never compiled; they are
// linted under *virtual* paths because rule scoping is path-driven (the
// same snippet is a violation in src/simcore/ and fine in tools/).
#include "lts_lint/linter.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lts_lint/rules.hpp"
#include "util/json.hpp"

namespace {

using lts::lint::Diagnostic;
using lts::lint::lint_text;
using lts::lint::lint_tree;
using lts::lint::Options;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string read_fixture(const std::string& name) {
  return read_file(std::string(LTS_FIXTURE_DIR) + "/" + name);
}

/// 1-based line number of the first line containing `marker`.
std::size_t line_of(const std::string& text, const std::string& marker) {
  std::istringstream in(text);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    ++n;
    if (line.find(marker) != std::string::npos) return n;
  }
  ADD_FAILURE() << "marker not found: " << marker;
  return 0;
}

bool has_diag(const std::vector<Diagnostic>& diags, const std::string& rule,
              std::size_t line) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.rule == rule && d.line == line;
  });
}

std::size_t count_rule(const std::vector<Diagnostic>& diags,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

// ------------------------------------------------------------------- R1 ----

TEST(LintR1, FiresOnEveryNondeterminismSource) {
  const std::string text = read_fixture("r1_nondeterminism.cpp");
  const auto diags = lint_text("src/simcore/fixture.cpp", text);
  EXPECT_TRUE(has_diag(diags, "R1", line_of(text, "std::random_device rd")));
  EXPECT_TRUE(has_diag(diags, "R1", line_of(text, "std::srand")));
  EXPECT_TRUE(has_diag(diags, "R1", line_of(text, "int noise = rand()")));
  EXPECT_TRUE(has_diag(diags, "R1", line_of(text, "steady_clock::now")));
  EXPECT_TRUE(has_diag(diags, "R1", line_of(text, "system_clock::now")));
  EXPECT_TRUE(has_diag(diags, "R1", line_of(text, "std::getenv")));
  EXPECT_EQ(diags.size(), 6u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "R1");
}

TEST(LintR1, ScopedToSrcOutsideObsAndCli) {
  const std::string text = read_fixture("r1_nondeterminism.cpp");
  // Wall-clock timing is the obs layer's business; tests and tools may
  // read clocks and the environment freely.
  EXPECT_TRUE(lint_text("src/obs/fixture.cpp", text).empty());
  EXPECT_TRUE(lint_text("tests/fixture.cpp", text).empty());
  EXPECT_TRUE(lint_text("bench/fixture.cpp", text).empty());
}

// ------------------------------------------------------------------- R2 ----

TEST(LintR2, FiresOnUnorderedDeclarationsInCriticalDirs) {
  const std::string text = read_fixture("r2_unordered.cpp");
  for (const char* dir : {"src/simcore/", "src/net/", "src/core/",
                          "src/cluster/", "src/spark/"}) {
    const auto diags = lint_text(std::string(dir) + "fixture.cpp", text);
    EXPECT_TRUE(has_diag(diags, "R2", line_of(text, "by_id")));
    EXPECT_TRUE(has_diag(diags, "R2", line_of(text, "seen")));
    EXPECT_EQ(count_rule(diags, "R2"), 2u) << dir;
  }
}

TEST(LintR2, IncludesAreExemptAndOtherDirsAreOutOfScope) {
  const std::string text = read_fixture("r2_unordered.cpp");
  const auto diags = lint_text("src/simcore/fixture.cpp", text);
  EXPECT_FALSE(has_diag(diags, "R2", line_of(text, "#include <unordered_map>")));
  // ml/telemetry/etc. are not tagged determinism-critical.
  EXPECT_TRUE(lint_text("src/ml/fixture.cpp", text).empty());
}

TEST(LintR2, FiresOnIterationOverCompanionHeaderContainers) {
  const std::string text = read_fixture("r2_iteration.cpp");
  const std::string companion = read_fixture("r2_iteration_header.txt");
  const auto diags = lint_text("src/net/fixture.cpp", text, companion);
  EXPECT_TRUE(has_diag(diags, "R2", line_of(text, ": edges_")));
  EXPECT_TRUE(has_diag(diags, "R2", line_of(text, "weights_.begin()")));
  EXPECT_EQ(count_rule(diags, "R2"), 2u);
  // Without the companion, the declarations are invisible and nothing fires.
  EXPECT_TRUE(lint_text("src/net/fixture.cpp", text).empty());
}

// ------------------------------------------------------------------- R3 ----

TEST(LintR3, FiresOnUngatedHotPathInstrumentation) {
  const std::string text = read_fixture("r3_obs.cpp");
  const auto diags = lint_text("src/net/fixture.cpp", text);
  EXPECT_TRUE(has_diag(diags, "R3", line_of(text, "auto& flows")));
  EXPECT_TRUE(has_diag(diags, "R3", line_of(text, "flows.inc()")));
  EXPECT_TRUE(has_diag(diags, "R3", line_of(text, "void record_solver_metrics")));
  EXPECT_EQ(diags.size(), 3u);
}

TEST(LintR3, AcceptsTheCachedEnabledFlagPattern) {
  const std::string text = read_fixture("r3_gated_ok.cpp");
  EXPECT_TRUE(lint_text("src/net/fixture.cpp", text).empty());
  EXPECT_TRUE(lint_text("src/simcore/fixture.cpp", text).empty());
}

TEST(LintR3, HotPathScopeIsSimcoreAndNet) {
  const std::string text = read_fixture("r3_obs.cpp");
  // The scheduler/telemetry layers record per decision, not per event;
  // they are outside the hot-path rule.
  EXPECT_TRUE(lint_text("src/core/fixture.cpp", text).empty());
  EXPECT_TRUE(lint_text("src/telemetry/fixture.cpp", text).empty());
}

// ------------------------------------------------------------------- R4 ----

TEST(LintR4, FiresOnRawThreadsDetachAndUnannotatedSharing) {
  const std::string text = read_fixture("r4_threads.cpp");
  const auto diags = lint_text("tests/fixture.cpp", text);
  EXPECT_TRUE(has_diag(diags, "R4", line_of(text, "std::thread worker")));
  EXPECT_TRUE(has_diag(diags, "R4", line_of(text, "worker.detach()")));
  EXPECT_TRUE(has_diag(diags, "R4", line_of(text, "pool.parallel_for(16")));
  EXPECT_EQ(diags.size(), 3u);
  // hardware_concurrency() is a static query, and by-value captures share
  // nothing mutable: neither may fire.
  EXPECT_FALSE(
      has_diag(diags, "R4", line_of(text, "hardware_concurrency")));
  EXPECT_FALSE(has_diag(diags, "R4", line_of(text, "[base]")));
}

TEST(LintR4, ThreadPoolImplementationIsExempt) {
  const std::string text = read_fixture("r4_threads.cpp");
  EXPECT_TRUE(lint_text("src/util/thread_pool.cpp", text).empty());
}

// ------------------------------------------------------------------- R5 ----

TEST(LintR5, FiresOnMissingGuardAndUsingNamespace) {
  const std::string text = read_fixture("r5_header.hpp");
  const auto diags = lint_text("src/util/fixture.hpp", text);
  EXPECT_TRUE(has_diag(diags, "R5", 1));
  EXPECT_TRUE(has_diag(diags, "R5", line_of(text, "using namespace std")));
  EXPECT_EQ(diags.size(), 2u);
  // The same content as a .cpp is fine (R5 is header hygiene).
  EXPECT_TRUE(lint_text("src/util/fixture.cpp", text).empty());
}

TEST(LintR5, AcceptsPragmaOnceAfterLeadingComments) {
  const std::string good =
      "// A documented header.\n"
      "\n"
      "#pragma once\n"
      "namespace x {}\n";
  EXPECT_TRUE(lint_text("src/util/fixture.hpp", good).empty());
  const std::string guarded =
      "#ifndef LTS_FIXTURE_HPP\n"
      "#define LTS_FIXTURE_HPP\n"
      "namespace x {}\n"
      "#endif\n";
  EXPECT_TRUE(lint_text("src/util/fixture.hpp", guarded).empty());
}

// ------------------------------------------------------------------- R6 ----

TEST(LintR6, FiresOnPublicMutatorsWithoutAcknowledgment) {
  const std::string text = read_fixture("r6_epoch.cpp");
  const std::string companion = read_fixture("r6_epoch_header.txt");
  const auto diags = lint_text("src/net/fixture.cpp", text, companion);
  // Public mutators of FlowManager state with no dirty mark.
  EXPECT_TRUE(has_diag(diags, "R6", line_of(text, "by_id_.erase")));
  EXPECT_TRUE(has_diag(diags, "R6", line_of(text, "live_path_words_ +=")));
  EXPECT_TRUE(has_diag(diags, "R6", line_of(text, "path_arena_.clear()")));
  EXPECT_TRUE(has_diag(diags, "R6", line_of(text, "free_slots_.push_back")));
  EXPECT_EQ(count_rule(diags, "R6"), 4u);
  // The bare `epoch-ok` (no justification) is malformed and suppresses
  // nothing — both diagnostics land.
  EXPECT_TRUE(
      has_diag(diags, "waiver-syntax", line_of(text, "lts-lint: epoch-ok")));
  EXPECT_EQ(count_rule(diags, "waiver-syntax"), 1u);
  EXPECT_EQ(diags.size(), 5u);
  // mark_dirty(), invalidate_rates() and a `dirty_ =` assignment
  // acknowledge; a private helper (compact_locked in the header) defers the
  // mark to its public caller.
  EXPECT_FALSE(has_diag(diags, "R6", line_of(text, "by_id_.push_back")));
  EXPECT_FALSE(has_diag(diags, "R6", line_of(text, "slots_.resize")));
  EXPECT_FALSE(has_diag(diags, "R6", line_of(text, "path_arena_.erase")));
  EXPECT_FALSE(has_diag(diags, "R6", line_of(text, "free_slots_.pop_back")));
}

TEST(LintR6, WithoutTheClassIndexAccessFailsClosed) {
  // No companion: membership is unknown, so every protocol-member mutation
  // is treated as public — the four firing sites still fire, and
  // compact_locked (invisible `private:`) now fires too.
  const std::string text = read_fixture("r6_epoch.cpp");
  const auto diags = lint_text("src/net/fixture.cpp", text);
  EXPECT_EQ(count_rule(diags, "R6"), 5u);
}

TEST(LintR6, DeletingTheFlowManagerDirtyMarkIsCaught) {
  // The acceptance probe: strip the `mark_dirty();` acknowledgments out of
  // the real FlowManager mutation paths and the invariant must fire on the
  // real code.
  std::string cpp = read_file(std::string(LTS_REPO_ROOT) + "/src/net/flow.cpp");
  const std::string hpp =
      read_file(std::string(LTS_REPO_ROOT) + "/src/net/flow.hpp");
  EXPECT_EQ(count_rule(lint_text("src/net/flow.cpp", cpp, hpp), "R6"), 0u);
  std::size_t removed = 0;
  for (std::size_t pos; (pos = cpp.find("mark_dirty();")) != std::string::npos;
       ++removed) {
    cpp.erase(pos, std::string("mark_dirty();").size());
  }
  ASSERT_GE(removed, 1u) << "flow.cpp no longer acknowledges with mark_dirty();";
  EXPECT_GE(count_rule(lint_text("src/net/flow.cpp", cpp, hpp), "R6"), 1u);
}

// ------------------------------------------------------------------- R7 ----

TEST(LintR7, FiresOnUnorderedAndParallelFpReductions) {
  const std::string text = read_fixture("r7_fp_order.cpp");
  const auto diags = lint_text("src/ml/fixture.cpp", text);
  EXPECT_TRUE(has_diag(diags, "R7", line_of(text, "std::reduce")));
  EXPECT_TRUE(has_diag(diags, "R7", line_of(text, "std::transform_reduce")));
  EXPECT_TRUE(
      has_diag(diags, "R7", line_of(text, "std::accumulate(weights_")));
  EXPECT_TRUE(has_diag(diags, "R7", line_of(text, "total += xs[i]")));
  EXPECT_EQ(count_rule(diags, "R7"), 4u);
  // The empty-justification fp-order-ok is malformed: diagnosed, and the
  // R7 underneath still fires. The two shared-guarded waivers keep R4 out.
  EXPECT_TRUE(
      has_diag(diags, "waiver-syntax", line_of(text, "fp-order-ok()")));
  EXPECT_EQ(count_rule(diags, "R4"), 0u);
  EXPECT_EQ(diags.size(), 5u);
  // A left fold over an ordered vector and an accumulator local to the
  // parallel extent are both deterministic.
  EXPECT_FALSE(
      has_diag(diags, "R7", line_of(text, "std::accumulate(xs.begin()")));
  EXPECT_FALSE(has_diag(diags, "R7", line_of(text, "acc += xs[i]")));
}

TEST(LintR7, ScopedToDeterminismCriticalDirs) {
  const std::string text = read_fixture("r7_fp_order.cpp");
  EXPECT_EQ(count_rule(lint_text("tools/fixture.cpp", text), "R7"), 0u);
  EXPECT_EQ(count_rule(lint_text("tests/fixture.cpp", text), "R7"), 0u);
}

// ------------------------------------------------------------------- R8 ----

TEST(LintR8, FiresInsideDeclaredHotFunctionsOnly) {
  const std::string text = read_fixture("r8_alloc.cpp");
  const auto diags = lint_text("src/core/fixture.cpp", text);
  EXPECT_TRUE(has_diag(diags, "R8", line_of(text, "new double[n]")));
  EXPECT_TRUE(has_diag(diags, "R8", line_of(text, "std::make_unique")));
  EXPECT_TRUE(has_diag(diags, "R8", line_of(text, "std::function<")));
  EXPECT_TRUE(
      has_diag(diags, "R8", line_of(text, "out.push_back(f(scratch[i]))")));
  EXPECT_TRUE(has_diag(diags, "R8", line_of(text, "acc.push_back(i)")));
  EXPECT_TRUE(has_diag(diags, "R8", line_of(text, "std::make_shared")));
  EXPECT_TRUE(has_diag(diags, "R8",
                       line_of(text, "std::function<void()> handler")));
  EXPECT_TRUE(has_diag(diags, "R8",
                       line_of(text, "std::function<void()> resume")));
  EXPECT_TRUE(has_diag(diags, "R8",
                       line_of(text, "std::make_shared<int>(stage)")));
  EXPECT_TRUE(has_diag(diags, "R8",
                       line_of(text, "std::make_unique<unsigned[]>")));
  EXPECT_TRUE(has_diag(diags, "R8", line_of(text, "out.push_back(value_[t])")));
  EXPECT_EQ(count_rule(diags, "R8"), 11u);
  // Unknown waiver token: diagnosed, does not suppress.
  EXPECT_TRUE(
      has_diag(diags, "waiver-syntax", line_of(text, "allocation-ok")));
  EXPECT_EQ(diags.size(), 12u);
  // reserve-then-push is the sanctioned pattern, and build_report's
  // identical body is not on the hot list.
  EXPECT_FALSE(has_diag(
      diags, "R8", line_of(text, "out.push_back(static_cast<double>(i))")));
  EXPECT_FALSE(has_diag(diags, "R8", line_of(text, "out.push_back(scratch[i])")));
  // SparkApp::submit is not on the per-event list.
  EXPECT_FALSE(
      has_diag(diags, "R8", line_of(text, "std::make_shared<int>(n)")));
  // FlatEnsemble::add_tree and a free predict() are not the kernel's walk.
  EXPECT_FALSE(has_diag(diags, "R8", line_of(text, "values.push_back(0.0)")));
  EXPECT_FALSE(has_diag(diags, "R8", line_of(text, "out.push_back(0.0)")));
}

// ------------------------------------------------------- cross-file tree ----

TEST(LintTree, CrossFileIndexResolvesCompanionsAndAccess) {
  // A miniature repo: headers supply the class index and the unordered
  // member declarations; the .cpp violations are only visible through the
  // shared project model.
  const std::string root = std::string(LTS_FIXTURE_DIR) + "/tree";
  const std::string flows = read_file(root + "/src/net/flows.cpp");
  const std::string graph = read_file(root + "/src/net/graph.cpp");
  const auto diags = lint_tree(root);
  EXPECT_TRUE(std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.rule == "R6" && d.path == "src/net/flows.cpp" &&
           d.line == line_of(flows, "by_id_.erase");
  }));
  // The private helper's identical mutation is exempt.
  EXPECT_FALSE(
      std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
        return d.rule == "R6" && d.line == line_of(flows, "by_id_.push_back");
      }));
  // Both iteration forms over the companion's unordered member fire, and
  // the header's own (waived) declaration stays quiet.
  EXPECT_TRUE(std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.rule == "R2" && d.path == "src/net/graph.cpp" &&
           d.line == line_of(graph, ": edges_");
  }));
  EXPECT_TRUE(std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.rule == "R2" && d.path == "src/net/graph.cpp" &&
           d.line == line_of(graph, "edges_.begin()");
  }));
  EXPECT_EQ(count_rule(diags, "waiver-unused"), 0u);
  EXPECT_EQ(diags.size(), 3u) << lts::lint::format_diagnostics(diags);
}

TEST(LintTree, ParallelLintIsByteIdenticalToSerial) {
  const std::string root = std::string(LTS_FIXTURE_DIR) + "/tree";
  Options serial;
  serial.jobs = 1;
  Options pooled;  // jobs = 0: the process-wide pool
  Options fixed;
  fixed.jobs = 3;
  const std::string want =
      lts::lint::format_diagnostics(lint_tree(root, serial));
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(lts::lint::format_diagnostics(lint_tree(root, pooled)), want);
  EXPECT_EQ(lts::lint::format_diagnostics(lint_tree(root, fixed)), want);
  // And at repository scale (both clean, but the walk + merge must agree).
  EXPECT_EQ(
      lts::lint::format_diagnostics(lint_tree(LTS_REPO_ROOT, serial)),
      lts::lint::format_diagnostics(lint_tree(LTS_REPO_ROOT, pooled)));
}

// -------------------------------------------------------------- baseline ----

TEST(LintBaseline, DiffSuppressesExactlyTheAcceptedFindings) {
  const std::vector<Diagnostic> old = {
      {"src/a.cpp", 10, "R2", "unordered container declared"},
      {"src/a.cpp", 20, "R2", "unordered container declared"},
      {"src/b.cpp", 5, "R6", "mutation without dirty mark"}};
  const auto base = lts::lint::load_baseline(lts::lint::write_baseline(old));
  // Fingerprints ignore line numbers: shifted findings stay suppressed.
  std::vector<Diagnostic> shifted = old;
  for (auto& d : shifted) d.line += 7;
  EXPECT_TRUE(lts::lint::diff_baseline(shifted, base).empty());
  // Counts are multiset-aware: a third identical R2 overflows the two.
  shifted.push_back({"src/a.cpp", 30, "R2", "unordered container declared"});
  const auto fresh = lts::lint::diff_baseline(shifted, base);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].line, 30u);
  // Unknown fingerprints are always new; the checked-in empty baseline
  // (the rollout default) suppresses nothing.
  const std::vector<Diagnostic> other = {
      {"src/c.cpp", 1, "R8", "allocation in hot path"}};
  EXPECT_EQ(lts::lint::diff_baseline(other, base).size(), 1u);
  EXPECT_EQ(lts::lint::diff_baseline(old, lts::lint::load_baseline("[]")).size(),
            old.size());
  EXPECT_EQ(lts::lint::diff_baseline(old, lts::lint::load_baseline("")).size(),
            old.size());
}

// -------------------------------------------------------------- registry ----

TEST(LintRegistry, EveryRuleExplainsItselfAndTokensResolve) {
  const auto& rules = lts::lint::rule_registry();
  ASSERT_EQ(rules.size(), 8u);
  for (const auto& r : rules) {
    EXPECT_FALSE(r.info.id.empty());
    EXPECT_FALSE(r.info.summary.empty()) << r.info.id;
    EXPECT_FALSE(r.info.rationale.empty()) << r.info.id;
    EXPECT_FALSE(r.info.example.empty()) << r.info.id;
    EXPECT_EQ(lts::lint::find_rule(r.info.id), &r);
    EXPECT_EQ(lts::lint::find_rule(r.info.name), &r);
  }
  const auto& tokens = lts::lint::waiver_tokens();
  EXPECT_EQ(tokens.at("epoch-ok"), "R6");
  EXPECT_EQ(tokens.at("fp-order-ok"), "R7");
  EXPECT_EQ(tokens.at("alloc-ok"), "R8");
  EXPECT_EQ(tokens.at("shared-guarded"), "R4");
  EXPECT_EQ(tokens.at("thread-ok"), "R4");
  EXPECT_EQ(lts::lint::find_rule("R9"), nullptr);
}

// --------------------------------------------------------------- waivers ----

TEST(LintWaivers, JustifiedWaiversSilenceEveryWaivableRule) {
  const std::string text = read_fixture("waivers_ok.cpp");
  EXPECT_TRUE(lint_text("src/simcore/fixture.cpp", text).empty());
}

TEST(LintWaivers, MalformedWaiversAreDiagnosedAndDoNotSuppress) {
  const std::string text = read_fixture("waiver_bad.cpp");
  const auto diags = lint_text("src/simcore/fixture.cpp", text);
  EXPECT_TRUE(
      has_diag(diags, "waiver-syntax", line_of(text, "no-such-token")));
  EXPECT_TRUE(has_diag(diags, "waiver-syntax",
                       line_of(text, "missing justification")));
  EXPECT_TRUE(has_diag(diags, "waiver-syntax",
                       line_of(text, "empty justification")));
  EXPECT_TRUE(
      has_diag(diags, "waiver-syntax", line_of(text, "hopefully fine")));
  EXPECT_EQ(count_rule(diags, "waiver-syntax"), 4u);
  // A broken waiver must not silence the violation beneath it.
  EXPECT_EQ(count_rule(diags, "R2"), 3u);
  EXPECT_EQ(count_rule(diags, "R4"), 1u);
}

TEST(LintWaivers, SitePartitionedStrategyIsRejected) {
  // `site-partitioned` is not a strategy (per-slot ownership of any kind is
  // `partitioned`): it is a waiver-syntax error and does not suppress the
  // R4 beneath it.
  const std::string site_partitioned =
      "void f(ThreadPool& pool) {\n"
      "  // lts-lint: shared-guarded(site-partitioned: each worker writes only its site's slots)\n"
      "  pool.parallel_for(4, [&](std::size_t i) { (void)i; });\n"
      "}\n";
  auto diags = lint_text("src/net/fixture.cpp", site_partitioned);
  EXPECT_EQ(count_rule(diags, "waiver-syntax"), 1u);
  EXPECT_EQ(count_rule(diags, "R4"), 1u);
  // A near-miss strategy name is rejected the same way.
  const std::string bad =
      "void f(ThreadPool& pool) {\n"
      "  // lts-lint: shared-guarded(sharded: sounds similar but is not a strategy)\n"
      "  pool.parallel_for(4, [&](std::size_t i) { (void)i; });\n"
      "}\n";
  diags = lint_text("src/net/fixture.cpp", bad);
  EXPECT_EQ(count_rule(diags, "waiver-syntax"), 1u);
  EXPECT_EQ(count_rule(diags, "R4"), 1u);
}

TEST(LintWaivers, StaleWaiversAreFlagged) {
  const std::string text = read_fixture("waiver_unused.cpp");
  const auto diags = lint_text("src/simcore/fixture.cpp", text);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "waiver-unused");
  EXPECT_EQ(diags[0].line, line_of(text, "lingers"));
  Options lax;
  lax.check_unused_waivers = false;
  EXPECT_TRUE(lint_text("src/simcore/fixture.cpp", text, "", lax).empty());
}

// ---------------------------------------------------------------- output ----

TEST(LintOutput, FormatsGccStyleDiagnostics) {
  const std::vector<Diagnostic> diags = {
      {"src/net/flow.cpp", 42, "R2", "unordered container"}};
  EXPECT_EQ(lts::lint::format_diagnostics(diags),
            "src/net/flow.cpp:42: error[R2]: unordered container\n");
}

TEST(LintOutput, JsonArrayRoundTrips) {
  const std::vector<Diagnostic> diags = {
      {"src/net/flow.cpp", 42, "R2", "unordered container"},
      {"src/core/engine.cpp", 7, "R8", "allocation in hot path"}};
  const lts::Json doc = lts::Json::parse(lts::lint::to_json(diags));
  ASSERT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc.at(0).at("path").as_string(), "src/net/flow.cpp");
  EXPECT_EQ(doc.at(0).at("line").as_int(), 42);
  EXPECT_EQ(doc.at(1).at("rule").as_string(), "R8");
  EXPECT_EQ(doc.at(1).at("message").as_string(), "allocation in hot path");
}

TEST(LintOutput, SarifIsSchemaShapedAndRegistryDriven) {
  const std::vector<Diagnostic> diags = {
      {"src/net/flow.cpp", 42, "R6", "mutation without dirty mark"}};
  const lts::Json doc = lts::Json::parse(lts::lint::to_sarif(diags));
  EXPECT_EQ(doc.at("version").as_string(), "2.1.0");
  EXPECT_NE(doc.at("$schema").as_string().find("sarif-schema-2.1.0"),
            std::string::npos);
  const lts::Json& run = doc.at("runs").at(0);
  const lts::Json& driver = run.at("tool").at("driver");
  EXPECT_EQ(driver.at("name").as_string(), "lts_lint");
  // The rule table is generated from the registry: every rule id present.
  std::set<std::string> ids;
  for (const auto& r : driver.at("rules").as_array()) {
    ids.insert(r.at("id").as_string());
  }
  for (const auto& rule : lts::lint::rule_registry()) {
    EXPECT_TRUE(ids.count(rule.info.id)) << rule.info.id;
  }
  EXPECT_TRUE(ids.count("waiver-syntax"));
  const lts::Json& res = run.at("results").at(0);
  EXPECT_EQ(res.at("ruleId").as_string(), "R6");
  const lts::Json& loc = res.at("locations").at(0).at("physicalLocation");
  EXPECT_EQ(loc.at("artifactLocation").at("uri").as_string(),
            "src/net/flow.cpp");
  EXPECT_EQ(loc.at("region").at("startLine").as_int(), 42);
}

// ------------------------------------------------------------ the repo ----

TEST(LintRepo, WholeRepositoryIsClean) {
  // The integration guarantee: zero unwaived violations across src/,
  // tools/, bench/, and tests/. If this fails, either fix the violation or
  // add a justified waiver (and record it in CHANGES.md).
  const auto diags = lint_tree(LTS_REPO_ROOT);
  EXPECT_TRUE(diags.empty()) << lts::lint::format_diagnostics(diags);
}

}  // namespace

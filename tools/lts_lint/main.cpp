// lts_lint CLI: walks the repository and reports invariant violations.
//
//   lts_lint [--root <dir>] [--format text|json|sarif] [--out <file>]
//            [--baseline <file>] [--write-baseline <file>]
//            [--jobs <n>] [--no-unused-waivers]
//            [--list-rules] [--explain <rule>]
//
// Exit code 0 when the tree is clean (or, under --baseline, when every
// finding is covered by the baseline), 1 when any new diagnostic was
// emitted, 2 on usage errors. Default output is GCC-style
// `file:line: error[rule]: message` so editors and CI annotate it natively;
// --format json/sarif render the same findings for scripting and
// code-scanning upload, and --out writes the rendering to a file while the
// human-readable summary stays on stderr.
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lts_lint/linter.hpp"
#include "lts_lint/rules.hpp"

namespace {

void print_rules() {
  std::puts("lts_lint rule catalog:");
  for (const lts::lint::Rule& r : lts::lint::rule_registry()) {
    std::printf("  %-3s %s\n      %s\n", r.info.id.c_str(),
                r.info.name.c_str(), r.info.summary.c_str());
  }
  std::puts(
      "waivers: // lts-lint: <token>(<justification>) on or directly above\n"
      "the flagged line. Malformed or unused waivers are errors.\n"
      "Use --explain <rule> for rationale, an example, and the waiver "
      "token.");
}

int explain_rule(const std::string& id) {
  const lts::lint::Rule* r = lts::lint::find_rule(id);
  if (r == nullptr) {
    std::fprintf(stderr, "lts_lint: unknown rule '%s' (try --list-rules)\n",
                 id.c_str());
    return 2;
  }
  std::printf("%s (%s)\n  %s\n\nWhy:\n  %s\n\nExample violation:\n  %s\n",
              r->info.id.c_str(), r->info.name.c_str(),
              r->info.summary.c_str(), r->info.rationale.c_str(),
              r->info.example.c_str());
  if (!r->info.waiver.empty()) {
    std::printf("\nWaiver:\n  // lts-lint: %s(<why this instance is safe>)\n",
                r->info.waiver.c_str());
  } else {
    std::puts("\nWaiver:\n  none — violations of this rule must be fixed");
  }
  return 0;
}

std::string read_file_or_die(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "lts_lint: cannot read '%s'\n", path.c_str());
    ok = false;
    return "";
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  ok = true;
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string format = "text";
  std::string out_path;
  std::string baseline_path;
  std::string write_baseline_path;
  lts::lint::Options opts;

  // Value-taking flags accept both `--flag value` and `--flag=value`; the
  // lambda splits the latter so the dispatch below sees one shape.
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string raw = argv[i];
    const auto eq = raw.find('=');
    if (raw.rfind("--", 0) == 0 && eq != std::string::npos) {
      args.push_back(raw.substr(0, eq));
      args.push_back(raw.substr(eq + 1));
    } else {
      args.push_back(raw);
    }
  }

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--root" && i + 1 < args.size()) {
      root = args[++i];
    } else if (arg == "--format" && i + 1 < args.size()) {
      format = args[++i];
      if (format != "text" && format != "json" && format != "sarif") {
        std::fprintf(stderr, "lts_lint: unknown format '%s'\n",
                     format.c_str());
        return 2;
      }
    } else if (arg == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (arg == "--baseline" && i + 1 < args.size()) {
      baseline_path = args[++i];
    } else if (arg == "--write-baseline" && i + 1 < args.size()) {
      write_baseline_path = args[++i];
    } else if (arg == "--jobs" && i + 1 < args.size()) {
      const std::string& text = args[++i];
      const char* end = text.data() + text.size();
      const auto [stop, ec] = std::from_chars(text.data(), end, opts.jobs);
      if (ec != std::errc() || stop != end) {
        std::fprintf(stderr,
                     "lts_lint: --jobs: expected a non-negative integer, "
                     "got '%s'\n",
                     text.c_str());
        return 2;
      }
    } else if (arg == "--no-unused-waivers") {
      opts.check_unused_waivers = false;
    } else if (arg == "--list-rules") {
      print_rules();
      return 0;
    } else if (arg == "--explain" && i + 1 < args.size()) {
      return explain_rule(args[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::puts(
          "usage: lts_lint [--root <dir>] [--format text|json|sarif]\n"
          "                [--out <file>] [--baseline <file>]\n"
          "                [--write-baseline <file>] [--jobs <n>]\n"
          "                [--no-unused-waivers] [--list-rules]\n"
          "                [--explain <rule>]");
      return 0;
    } else {
      std::fprintf(stderr, "lts_lint: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  const std::vector<lts::lint::Diagnostic> all =
      lts::lint::lint_tree(root, opts);

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path, std::ios::binary);
    out << lts::lint::write_baseline(all);
    if (!out) {
      std::fprintf(stderr, "lts_lint: cannot write '%s'\n",
                   write_baseline_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "lts_lint: wrote baseline (%zu finding(s)) to %s\n",
                 all.size(), write_baseline_path.c_str());
    return 0;
  }

  std::vector<lts::lint::Diagnostic> diags = all;
  std::size_t suppressed = 0;
  if (!baseline_path.empty()) {
    bool ok = false;
    const std::string text = read_file_or_die(baseline_path, ok);
    if (!ok) return 2;
    try {
      diags = lts::lint::diff_baseline(all, lts::lint::load_baseline(text));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lts_lint: malformed baseline '%s': %s\n",
                   baseline_path.c_str(), e.what());
      return 2;
    }
    suppressed = all.size() - diags.size();
  }

  // Render the post-baseline findings: that is what CI gates on, and a
  // SARIF upload should not resurface accepted pre-existing debt.
  std::string rendered;
  if (format == "json") {
    rendered = lts::lint::to_json(diags);
  } else if (format == "sarif") {
    rendered = lts::lint::to_sarif(diags);
  } else {
    rendered = lts::lint::format_diagnostics(diags);
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    out << rendered;
    if (!out) {
      std::fprintf(stderr, "lts_lint: cannot write '%s'\n", out_path.c_str());
      return 2;
    }
  } else if (format != "text") {
    std::fputs(rendered.c_str(), stdout);
  }

  if (diags.empty()) {
    if (suppressed > 0) {
      std::fprintf(stderr,
                   "lts_lint: clean (%zu baseline finding(s) suppressed)\n",
                   suppressed);
    } else {
      std::puts("lts_lint: clean");
    }
    return 0;
  }
  // The human-readable rendering always reaches stderr so a failing ctest
  // run or CI log shows the actual findings, not just a count.
  std::fputs(lts::lint::format_diagnostics(diags).c_str(), stderr);
  std::fprintf(stderr, "lts_lint: %zu %sviolation(s)\n", diags.size(),
               baseline_path.empty() ? "" : "new ");
  return 1;
}

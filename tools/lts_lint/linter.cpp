// Back-compatible driver entry points over the v2 engine: lint_text builds
// a two-file project model (file + synthesized companion), lint_tree builds
// the repo-wide model once and fans per-file rule passes out over the
// ThreadPool with a deterministic merge.
#include "lts_lint/linter.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <locale>
#include <sstream>

#include "lts_lint/rules.hpp"
#include "util/thread_pool.hpp"

namespace lts::lint {
namespace {

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

std::vector<Diagnostic> lint_text(const std::string& rel_path,
                                  const std::string& content,
                                  const std::string& companion,
                                  const Options& opts) {
  std::vector<std::pair<std::string, std::string>> sources;
  sources.emplace_back(rel_path, content);
  if (!companion.empty() &&
      (ends_with(rel_path, ".cpp") || ends_with(rel_path, ".cc"))) {
    // The companion is addressable as the sibling header, which is exactly
    // where ProjectModel::companion_of falls back to.
    std::string header = rel_path;
    header.erase(header.rfind('.'));
    header += ".hpp";
    sources.emplace_back(std::move(header), companion);
  }
  const ProjectModel project =
      ProjectModel::from_files(sources, {"src", "tools"}, waiver_tokens());
  return run_rules(project.files.at(rel_path), project,
                   opts.check_unused_waivers);
}

std::vector<Diagnostic> lint_tree(const std::string& root,
                                  const Options& opts) {
  namespace fs = std::filesystem;
  const std::vector<std::string> kDirs = {"src", "tools", "bench", "tests"};
  const std::vector<std::string> kExts = {".cpp", ".hpp", ".h", ".cc"};

  std::vector<std::string> files;
  for (const std::string& dir : kDirs) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string rel =
          fs::relative(entry.path(), root).generic_string();
      if (rel.find("lint_fixtures") != std::string::npos) continue;
      if (rel.find("build") == 0) continue;
      const std::string ext = entry.path().extension().string();
      if (std::find(kExts.begin(), kExts.end(), ext) == kExts.end()) continue;
      files.push_back(rel);
    }
  }
  std::sort(files.begin(), files.end());

  // The content cache: every file — header or source — is read and parsed
  // exactly once here; companion lookups hit the model.
  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(files.size());
  for (const std::string& rel : files) {
    sources.emplace_back(rel, read_file(fs::path(root) / rel));
  }

  std::vector<std::string> roots = {"src", "tools"};
  for (const char* cc :
       {"build/compile_commands.json", "compile_commands.json"}) {
    const fs::path cc_path = fs::path(root) / cc;
    if (fs::exists(cc_path)) {
      std::error_code ec;
      const fs::path abs_root = fs::canonical(root, ec);
      roots = include_roots_from_compile_commands(
          read_file(cc_path),
          ec ? std::string(root) : abs_root.generic_string());
      break;
    }
  }

  const ProjectModel project =
      ProjectModel::from_files(sources, roots, waiver_tokens());

  // Per-file passes are independent (each writes only its own slot), so the
  // merge below is deterministic for any worker count.
  //
  // Rules compile their std::regex patterns on first use, and compiling
  // narrows each pattern character through the global locale's
  // ctype<char> facet, which caches the result with an unsynchronized
  // write. Filling that cache here leaves the workers only reads.
  const auto& ctype = std::use_facet<std::ctype<char>>(std::locale());
  for (int c = 0; c < 256; ++c) ctype.narrow(static_cast<char>(c), '\0');
  std::vector<std::vector<Diagnostic>> per_file(files.size());
  auto run_one = [&](std::size_t i) {
    per_file[i] = run_rules(project.files.at(files[i]), project,
                            opts.check_unused_waivers);
  };
  if (opts.jobs == 1) {
    for (std::size_t i = 0; i < files.size(); ++i) run_one(i);
  } else if (opts.jobs == 0) {
    ThreadPool::global().parallel_for(files.size(), run_one);
  } else {
    ThreadPool pool(opts.jobs);
    pool.parallel_for(files.size(), run_one);
  }

  std::vector<Diagnostic> all;
  for (std::vector<Diagnostic>& diags : per_file) {
    all.insert(all.end(), diags.begin(), diags.end());
  }
  return all;
}

}  // namespace lts::lint

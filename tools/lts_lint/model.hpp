// lts_lint project model: the shared substrate every rule reads.
//
// Layer 1 — per-file token stream. Each physical line is split into
// executable `code` (string/char literals blanked, comments stripped) and
// `comment` text (where waivers live), with block-comment state tracked
// across lines.
//
// Layer 2 — per-file structure. Waiver annotations resolved to their target
// lines, `#include "..."` directives, and namespace-level function
// definitions (free and `Class::member`) with their body line ranges.
//
// Layer 3 — repo-wide index. Class definitions with their data members
// (name, declared type, access) and member-function declarations (name,
// access), merged across every scanned file, plus the include graph:
// quoted includes resolved against the include roots discovered from
// `compile_commands.json` (falling back to <root>/src and <root>/tools).
// The index is what lets a rule checking src/net/flow.cpp know that
// `by_id_` is a private member of `FlowManager` declared in flow.hpp, that
// `cancel` is public, and which header is the .cpp's companion — the
// cross-file facts the R6/R7/R8 invariant rules are built on.
//
// Parsing is line-oriented and heuristic by design (no real C++ frontend):
// it exploits the repo's enforced conventions — data members end in `_`,
// one declaration per line, functions defined at namespace scope. Inline
// member-function bodies inside class definitions are not scanned for
// rule violations (R6's FlowManager keeps its mutators outlined,
// which the rules themselves encourage).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace lts::lint {

struct Diagnostic {
  std::string path;     // repo-relative, forward slashes
  std::size_t line = 0; // 1-based
  std::string rule;     // "R1".."R8", "waiver-syntax", "waiver-unused"
  std::string message;

  bool operator==(const Diagnostic&) const = default;
};

/// One physical line split into executable text and comment text. String and
/// character literals are blanked from `code` so patterns inside them (e.g.
/// this linter's own rule regexes) never fire; comment text is kept
/// separately because waivers live there.
struct SourceLine {
  std::string code;
  std::string comment;
};

std::vector<std::string> split_lines(const std::string& text);
std::vector<SourceLine> preprocess(const std::string& text);

bool starts_with(const std::string& s, const std::string& prefix);
bool ends_with(const std::string& s, const std::string& suffix);
bool is_header_path(const std::string& path);
bool is_blank(const std::string& s);
bool under_any(const std::string& path,
               std::initializer_list<const char*> dirs);

// --------------------------------------------------------------- waivers ----

struct Waiver {
  std::size_t line = 0;    // 1-based line the waiver comment sits on
  std::size_t target = 0;  // 1-based line it applies to
  std::string token;
  std::string justification;
  std::string rule;  // rule id the token waives; empty if malformed
  bool used = false;
};

/// Finds waivers in comment text and resolves each to its target line: the
/// same line when it trails code, otherwise the next line that carries code
/// (within a 3-line window, so a standalone comment block can precede its
/// target). `tokens` maps waiver token -> rule id; malformed annotations are
/// appended to `diags` as `waiver-syntax`.
std::vector<Waiver> collect_waivers(const std::vector<SourceLine>& lines,
                                    const std::map<std::string, std::string>& tokens,
                                    std::vector<Diagnostic>& diags,
                                    const std::string& path);

// ----------------------------------------------------------------- index ----

struct MemberField {
  std::string name;    // always `_`-suffixed (the repo's member convention)
  std::string type;    // declared type text, as written
  std::string access;  // "public" | "protected" | "private"
};

struct MemberFunction {
  std::string name;
  std::string access;
};

struct ClassInfo {
  std::string name;
  std::string file;  // file whose scan contributed the definition
  std::vector<MemberField> fields;
  std::vector<MemberFunction> functions;

  const MemberField* field(const std::string& n) const;
  const MemberFunction* function(const std::string& n) const;
};

/// A namespace-level function definition (free or out-of-line member).
struct FunctionDef {
  std::string class_name;  // "" for free functions
  std::string name;
  std::size_t signature_line = 0;  // 1-based line the name appears on
  std::size_t body_begin = 0;      // line carrying the opening '{'
  std::size_t body_end = 0;        // line carrying the matching '}'
};

struct FileModel {
  std::string path;
  std::vector<SourceLine> lines;
  std::vector<Waiver> waivers;
  std::vector<Diagnostic> waiver_diags;  // waiver-syntax findings
  std::vector<FunctionDef> functions;
  std::vector<std::string> includes;  // raw quoted include targets, in order
  std::vector<ClassInfo> classes;     // classes defined in this file
};

/// Builds the per-file model: preprocessed lines, waivers (validated against
/// `tokens`), includes, namespace-level function definitions, and class
/// definitions with member access tracking.
FileModel build_file_model(const std::string& rel_path,
                           const std::string& content,
                           const std::map<std::string, std::string>& tokens);

/// Names of unordered_map/unordered_set members/variables declared in
/// `lines` (for the R2 cross-file iteration check and the R7 accumulate
/// check).
std::set<std::string> unordered_names(const std::vector<SourceLine>& lines);

// ---------------------------------------------------------------- project ----

class ProjectModel {
 public:
  /// Repo-relative path -> file model. The content cache: every file is
  /// read and preprocessed exactly once, then shared by its own lint pass
  /// and by every pass that sees it as a companion.
  std::map<std::string, FileModel> files;
  /// Class name -> merged info across all scanned files (a header's member
  /// list wins over a forward declaration; first full definition wins).
  std::map<std::string, ClassInfo> classes;
  /// file -> resolved repo-relative include edges (quoted includes only,
  /// resolved against the include roots; unresolvable includes omitted).
  std::map<std::string, std::vector<std::string>> include_edges;

  const ClassInfo* find_class(const std::string& name) const;

  /// Companion header of a .cpp/.cc: the first include edge whose filename
  /// stem matches the source's, else the same-directory `<stem>.hpp` when
  /// present in the file set. nullptr when there is none.
  const FileModel* companion_of(const std::string& cpp_path) const;

  /// Assembles a model from (path, content) pairs. `include_roots` are
  /// repo-relative prefixes ("src", "tools") used to resolve quoted
  /// includes against the scanned file set.
  static ProjectModel from_files(
      const std::vector<std::pair<std::string, std::string>>& path_content,
      const std::vector<std::string>& include_roots,
      const std::map<std::string, std::string>& tokens);
};

/// Extracts repo-relative include roots from a compile_commands.json blob:
/// every `-I<dir>` under `root` becomes a root prefix. Returns the default
/// {"src", "tools"} when the text is empty or yields nothing under root.
std::vector<std::string> include_roots_from_compile_commands(
    const std::string& json_text, const std::string& root);

}  // namespace lts::lint

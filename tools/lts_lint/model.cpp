#include "lts_lint/model.hpp"

#include <algorithm>
#include <regex>

namespace lts::lint {

// ------------------------------------------------------------------ text ----

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  lines.push_back(std::move(current));
  return lines;
}

/// Strips comments and literals line by line, tracking block-comment state
/// across lines. Escaped quotes inside literals are honored; raw strings are
/// not (the codebase does not use them in linted directories).
std::vector<SourceLine> preprocess(const std::string& text) {
  std::vector<SourceLine> out;
  bool in_block_comment = false;
  for (const std::string& raw : split_lines(text)) {
    SourceLine line;
    std::size_t i = 0;
    while (i < raw.size()) {
      if (in_block_comment) {
        const std::size_t end = raw.find("*/", i);
        if (end == std::string::npos) {
          line.comment.append(raw, i, raw.size() - i);
          i = raw.size();
        } else {
          line.comment.append(raw, i, end - i);
          i = end + 2;
          in_block_comment = false;
        }
        continue;
      }
      const char c = raw[i];
      if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '/') {
        line.comment.append(raw, i + 2, raw.size() - i - 2);
        break;
      }
      if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '*') {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        line.code.push_back(quote);
        ++i;
        while (i < raw.size()) {
          if (raw[i] == '\\' && i + 1 < raw.size()) {
            i += 2;
            continue;
          }
          if (raw[i] == quote) {
            line.code.push_back(quote);
            ++i;
            break;
          }
          ++i;
        }
        continue;
      }
      line.code.push_back(c);
      ++i;
    }
    out.push_back(std::move(line));
  }
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_header_path(const std::string& path) {
  return ends_with(path, ".hpp") || ends_with(path, ".h");
}

bool is_blank(const std::string& s) {
  return s.find_first_not_of(" \t") == std::string::npos;
}

bool under_any(const std::string& path,
               std::initializer_list<const char*> dirs) {
  for (const char* d : dirs) {
    if (starts_with(path, d)) return true;
  }
  return false;
}

// --------------------------------------------------------------- waivers ----

std::vector<Waiver> collect_waivers(
    const std::vector<SourceLine>& lines,
    const std::map<std::string, std::string>& tokens,
    std::vector<Diagnostic>& diags, const std::string& path) {
  static const std::regex kWaiverRe(
      R"(lts-lint:\s*([A-Za-z][A-Za-z-]*)\s*(\(([^)]*)\))?)");
  std::vector<Waiver> waivers;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& comment = lines[i].comment;
    if (comment.find("lts-lint:") == std::string::npos) continue;
    std::smatch m;
    if (!std::regex_search(comment, m, kWaiverRe)) {
      diags.push_back(
          {path, i + 1, "waiver-syntax", "unparseable lts-lint annotation"});
      continue;
    }
    Waiver w;
    w.line = i + 1;
    w.token = m[1].str();
    w.justification = m[3].matched ? m[3].str() : "";
    const auto it = tokens.find(w.token);
    if (it == tokens.end()) {
      diags.push_back({path, w.line, "waiver-syntax",
                       "unknown waiver token '" + w.token + "'"});
      continue;
    }
    if (!m[2].matched || is_blank(w.justification)) {
      diags.push_back({path, w.line, "waiver-syntax",
                       "waiver '" + w.token +
                           "' requires a justification: // lts-lint: " +
                           w.token + "(<why>)"});
      continue;
    }
    if (w.token == "shared-guarded") {
      // The justification must open with a strategy name; the \b keeps
      // longer words such as "atomically" from passing for one.
      static const std::regex kStrategy(
          R"(^\s*(mutex|atomic|partitioned)\b)");
      if (!std::regex_search(w.justification, kStrategy)) {
        diags.push_back(
            {path, w.line, "waiver-syntax",
             "shared-guarded strategy must be mutex, atomic or partitioned "
             "(got '" + w.justification + "')"});
        continue;
      }
    }
    w.rule = it->second;
    w.target = w.line;
    if (is_blank(lines[i].code)) {
      for (std::size_t j = i + 1; j < lines.size() && j <= i + 3; ++j) {
        if (!is_blank(lines[j].code)) {
          w.target = j + 1;
          break;
        }
      }
    }
    waivers.push_back(std::move(w));
  }
  return waivers;
}

// ----------------------------------------------------------------- index ----

const MemberField* ClassInfo::field(const std::string& n) const {
  for (const MemberField& f : fields) {
    if (f.name == n) return &f;
  }
  return nullptr;
}

const MemberFunction* ClassInfo::function(const std::string& n) const {
  for (const MemberFunction& f : functions) {
    if (f.name == n) return &f;
  }
  return nullptr;
}

namespace {

bool is_identifier_keyword(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",      "while",    "switch",   "return",
      "sizeof",   "alignof",  "decltype", "noexcept", "static_assert",
      "operator", "throw",    "catch",    "new",      "delete",
      "void",     "defined",  "assert",   "explicit", "co_return",
      "case",     "default",  "do",       "else",     "goto"};
  return kKeywords.count(name) > 0;
}

/// The identifier (possibly ::-qualified) immediately preceding position
/// `paren` in `code`; empty if none.
std::string qualified_name_before(const std::string& code, std::size_t paren) {
  std::size_t end = paren;
  while (end > 0 && (code[end - 1] == ' ' || code[end - 1] == '\t')) --end;
  std::size_t begin = end;
  auto is_name_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || c == '~';
  };
  while (begin > 0 && is_name_char(code[begin - 1])) --begin;
  // Trim leading ':' fragments from e.g. "a ? b : c()".
  while (begin < end && code[begin] == ':') ++begin;
  return code.substr(begin, end - begin);
}

/// Collects class/struct definitions with member fields (the `_`-suffix
/// convention) and member-function declarations, tracking access sections.
void scan_classes(FileModel& fm) {
  static const std::regex kClassOpen(
      R"(\b(enum\s+class|enum\s+struct|class|struct)\s+([A-Za-z_]\w*))");
  static const std::regex kAccess(R"(^\s*(public|protected|private)\s*:)");
  // One member declaration per line; the name carries the trailing `_`.
  static const std::regex kField(
      R"(^\s*((?:mutable\s+|static\s+|constexpr\s+|inline\s+)*(?:const\s+)?[A-Za-z_][\w:]*(?:\s*<[^;]*>)?(?:\s*[&\*])*)\s+([A-Za-z_]\w*_)\s*(?:\{[^}]*\}|=[^;]*)?;)");

  struct OpenClass {
    ClassInfo info;
    int body_depth = 0;     // brace depth inside the class body
    std::string access;
  };
  std::vector<OpenClass> stack;
  int depth = 0;
  bool pending = false;
  ClassInfo pending_info;
  std::string pending_access;

  for (std::size_t i = 0; i < fm.lines.size(); ++i) {
    const std::string& code = fm.lines[i].code;
    std::smatch m;
    if (!pending && std::regex_search(code, m, kClassOpen) &&
        !starts_with(m[1].str(), "enum") &&
        code.find("template") == std::string::npos) {
      // Only treat it as a definition if a '{' follows before any ';'
      // (skips forward declarations and friend decls); the brace may sit
      // on the match line or lines below.
      const std::string tail = m.suffix().str();
      const std::size_t tail_brace = tail.find('{');
      const std::size_t tail_semi = tail.find(';');
      bool opens = tail_brace != std::string::npos &&
                   (tail_semi == std::string::npos || tail_brace < tail_semi);
      bool closed = !opens && tail_semi != std::string::npos;
      if (!opens && !closed) {
        for (std::size_t j = i + 1; j < fm.lines.size() && j <= i + 3; ++j) {
          const std::string& look = fm.lines[j].code;
          const std::size_t brace = look.find('{');
          const std::size_t semi = look.find(';');
          if (brace != std::string::npos &&
              (semi == std::string::npos || brace < semi)) {
            opens = true;
            break;
          }
          if (semi != std::string::npos) break;
        }
      }
      if (opens) {
        pending = true;
        pending_info = ClassInfo{};
        pending_info.name = m[2].str();
        pending_info.file = fm.path;
        pending_access = m[1].str() == "class" ? "private" : "public";
      }
    }

    // Record members only for lines sitting directly in the innermost
    // class body (depth == its body_depth): nested classes collect their
    // own members, function bodies are deeper and skipped.
    if (!stack.empty() && !pending) {
      OpenClass& cls = stack.back();
      if (depth == cls.body_depth) {
        std::smatch am;
        if (std::regex_search(code, am, kAccess)) {
          cls.access = am[1].str();
        } else if (std::regex_search(code, am, kField)) {
          cls.info.fields.push_back(
              MemberField{am[2].str(), am[1].str(), cls.access});
        } else {
          // Member function declaration: first unqualified identifier
          // followed by '('.
          for (std::size_t p = code.find('('); p != std::string::npos;
               p = code.find('(', p + 1)) {
            std::string name = qualified_name_before(code, p);
            if (name.empty()) continue;
            if (!name.empty() && name[0] == '~') name = name.substr(1);
            if (name.find(':') != std::string::npos) continue;  // a call
            if (is_identifier_keyword(name)) continue;
            if (ends_with(name, "_")) continue;  // field with init, not fn
            cls.info.functions.push_back(MemberFunction{name, cls.access});
            break;
          }
        }
      }
    }

    // Brace tracking, attaching the pending class at its opening brace.
    for (char c : code) {
      if (c == '{') {
        ++depth;
        if (pending) {
          OpenClass oc;
          oc.info = std::move(pending_info);
          oc.body_depth = depth;
          oc.access = pending_access;
          stack.push_back(std::move(oc));
          pending = false;
        }
      } else if (c == '}') {
        --depth;
        while (!stack.empty() && stack.back().body_depth > depth) {
          fm.classes.push_back(std::move(stack.back().info));
          stack.pop_back();
        }
      }
    }
  }
  while (!stack.empty()) {  // unterminated (truncated fixture): keep what we saw
    fm.classes.push_back(std::move(stack.back().info));
    stack.pop_back();
  }
}

/// Collects namespace-level function definitions (free and out-of-line
/// member) with their body line ranges. "Namespace level" means the brace
/// depth contributed by anything other than `namespace {` / `extern "C" {`
/// is zero, so class bodies and function bodies are never scanned twice.
void scan_functions(FileModel& fm) {
  static const std::regex kControl(R"(^\s*(?:#|template\b))");
  int depth = 0;
  int ns_depth = 0;           // how many open braces are namespace braces
  std::vector<bool> ns_open;  // per open brace: was it a namespace?
  bool pending_ns = false;

  for (std::size_t i = 0; i < fm.lines.size(); ++i) {
    const std::string& code = fm.lines[i].code;
    if (code.find("namespace") != std::string::npos) pending_ns = true;

    if (depth == ns_depth && !std::regex_search(code, kControl)) {
      const std::size_t paren = code.find('(');
      if (paren != std::string::npos) {
        std::string qual = qualified_name_before(code, paren);
        if (!qual.empty() && qual.find('~') == std::string::npos) {
          // A definition's '{' appears before any ';' (declarations and
          // plain statements end with ';' first).
          std::size_t open_line = 0;
          bool is_def = false;
          for (std::size_t j = i; j < fm.lines.size() && j <= i + 12; ++j) {
            const std::string& look = fm.lines[j].code;
            std::size_t from = j == i ? paren : 0;
            const std::size_t brace = look.find('{', from);
            const std::size_t semi = look.find(';', from);
            const std::size_t eq = look.find('=', from);
            if (brace != std::string::npos &&
                (semi == std::string::npos || brace < semi) &&
                (eq == std::string::npos || brace < eq)) {
              is_def = true;
              open_line = j;
              break;
            }
            if (semi != std::string::npos || eq != std::string::npos) break;
          }
          std::string cls;
          std::string name = qual;
          const std::size_t sep = qual.rfind("::");
          if (sep != std::string::npos) {
            cls = qual.substr(0, sep);
            name = qual.substr(sep + 2);
            const std::size_t cls_sep = cls.rfind("::");
            if (cls_sep != std::string::npos) cls = cls.substr(cls_sep + 2);
          }
          if (is_def && !is_identifier_keyword(name)) {
            // Walk to the matching close brace.
            int fn_depth = 0;
            std::size_t end_line = open_line;
            bool closed = false;
            for (std::size_t j = open_line;
                 j < fm.lines.size() && !closed; ++j) {
              std::size_t from = j == open_line
                                     ? fm.lines[j].code.find('{')
                                     : 0;
              const std::string& look = fm.lines[j].code;
              for (std::size_t k = from; k < look.size(); ++k) {
                if (look[k] == '{') ++fn_depth;
                if (look[k] == '}') {
                  --fn_depth;
                  if (fn_depth == 0) {
                    end_line = j;
                    closed = true;
                    break;
                  }
                }
              }
            }
            if (closed) {
              fm.functions.push_back(FunctionDef{cls, name, i + 1,
                                                 open_line + 1, end_line + 1});
              // Skip the body: nothing inside is at namespace level.
              // (Brace tracking below still needs to see these lines, so
              // only the *function scan* skips ahead.)
            }
          }
        }
      }
    }

    for (char c : code) {
      if (c == '{') {
        ++depth;
        ns_open.push_back(pending_ns);
        if (pending_ns) {
          ++ns_depth;
          pending_ns = false;
        }
      } else if (c == '}') {
        if (!ns_open.empty()) {
          if (ns_open.back()) --ns_depth;
          ns_open.pop_back();
        }
        if (depth > 0) --depth;
      }
    }
    if (pending_ns && code.find(';') != std::string::npos) {
      pending_ns = false;  // e.g. `namespace fs = std::filesystem;`
    }
  }
}

void scan_includes(FileModel& fm) {
  static const std::regex kInclude(R"(^\s*#\s*include\s+\"([^\"]+)\")");
  for (const SourceLine& l : fm.lines) {
    std::smatch m;
    if (std::regex_search(l.code, m, kInclude)) {
      fm.includes.push_back(m[1].str());
    }
  }
}

std::string stem_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

std::set<std::string> unordered_names(const std::vector<SourceLine>& lines) {
  static const std::regex kDecl(
      R"(unordered_(?:map|set)\s*<[^;{]*>\s*&?\s*(\w+)\s*[;={])");
  std::set<std::string> names;
  for (const SourceLine& l : lines) {
    std::smatch m;
    std::string rest = l.code;
    while (std::regex_search(rest, m, kDecl)) {
      names.insert(m[1].str());
      rest = m.suffix();
    }
  }
  return names;
}

FileModel build_file_model(const std::string& rel_path,
                           const std::string& content,
                           const std::map<std::string, std::string>& tokens) {
  FileModel fm;
  fm.path = rel_path;
  fm.lines = preprocess(content);
  fm.waivers = collect_waivers(fm.lines, tokens, fm.waiver_diags, rel_path);
  scan_includes(fm);
  scan_classes(fm);
  scan_functions(fm);
  return fm;
}

// ---------------------------------------------------------------- project ----

const ClassInfo* ProjectModel::find_class(const std::string& name) const {
  const auto it = classes.find(name);
  return it == classes.end() ? nullptr : &it->second;
}

const FileModel* ProjectModel::companion_of(const std::string& cpp_path) const {
  if (!ends_with(cpp_path, ".cpp") && !ends_with(cpp_path, ".cc")) {
    return nullptr;
  }
  const std::string stem = stem_of(cpp_path);
  const auto edges = include_edges.find(cpp_path);
  if (edges != include_edges.end()) {
    for (const std::string& target : edges->second) {
      if (is_header_path(target) && stem_of(target) == stem) {
        const auto f = files.find(target);
        if (f != files.end()) return &f->second;
      }
    }
  }
  const std::string sibling =
      (dir_of(cpp_path).empty() ? stem : dir_of(cpp_path) + "/" + stem) +
      ".hpp";
  const auto f = files.find(sibling);
  return f == files.end() ? nullptr : &f->second;
}

ProjectModel ProjectModel::from_files(
    const std::vector<std::pair<std::string, std::string>>& path_content,
    const std::vector<std::string>& include_roots,
    const std::map<std::string, std::string>& tokens) {
  ProjectModel pm;
  for (const auto& [path, content] : path_content) {
    pm.files.emplace(path, build_file_model(path, content, tokens));
  }
  // Merge the class index: the richest definition wins, so a forward
  // declaration or a stub never shadows the real member list.
  for (const auto& [path, fm] : pm.files) {
    for (const ClassInfo& c : fm.classes) {
      auto [it, inserted] = pm.classes.emplace(c.name, c);
      if (!inserted &&
          c.fields.size() + c.functions.size() >
              it->second.fields.size() + it->second.functions.size()) {
        it->second = c;
      }
    }
  }
  // Resolve quoted includes against the scanned set: first the include
  // roots, then the including file's own directory.
  for (const auto& [path, fm] : pm.files) {
    std::vector<std::string> resolved;
    for (const std::string& inc : fm.includes) {
      std::string hit;
      for (const std::string& r : include_roots) {
        const std::string candidate = r.empty() ? inc : r + "/" + inc;
        if (pm.files.count(candidate) > 0) {
          hit = candidate;
          break;
        }
      }
      if (hit.empty()) {
        const std::string local = dir_of(path);
        const std::string candidate =
            local.empty() ? inc : local + "/" + inc;
        if (pm.files.count(candidate) > 0) hit = candidate;
      }
      if (!hit.empty()) resolved.push_back(hit);
    }
    if (!resolved.empty()) pm.include_edges.emplace(path, std::move(resolved));
  }
  return pm;
}

std::vector<std::string> include_roots_from_compile_commands(
    const std::string& json_text, const std::string& root) {
  std::vector<std::string> roots;
  if (!json_text.empty()) {
    // The compilation database is machine-written JSON; the -I arguments
    // are what matter, and a tolerant scan keeps this free of a hard
    // dependency on any one generator's quoting style.
    static const std::regex kInclude(R"(-I\s*([^\s\",\\]+))");
    std::string prefix = root;
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    auto begin =
        std::sregex_iterator(json_text.begin(), json_text.end(), kInclude);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      std::string dir = (*it)[1].str();
      if (starts_with(dir, prefix)) {
        dir = dir.substr(prefix.size());
      } else if (dir == root) {
        dir.clear();
      } else if (!starts_with(dir, "/")) {
        // Already relative (some generators emit relative -I).
      } else {
        continue;  // include dir outside the repo: irrelevant to the graph
      }
      while (!dir.empty() && dir.back() == '/') dir.pop_back();
      if (std::find(roots.begin(), roots.end(), dir) == roots.end()) {
        roots.push_back(dir);
      }
    }
  }
  if (roots.empty()) roots = {"src", "tools"};
  return roots;
}

}  // namespace lts::lint

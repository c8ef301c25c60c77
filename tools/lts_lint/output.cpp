#include "lts_lint/output.hpp"

#include <sstream>

#include "lts_lint/rules.hpp"
#include "util/json.hpp"

namespace lts::lint {

std::string format_diagnostics(const std::vector<Diagnostic>& diags) {
  std::ostringstream out;
  for (const Diagnostic& d : diags) {
    out << d.path << ':' << d.line << ": error[" << d.rule
        << "]: " << d.message << '\n';
  }
  return out.str();
}

std::string to_json(const std::vector<Diagnostic>& diags) {
  Json arr = Json::array();
  for (const Diagnostic& d : diags) {
    Json entry = Json::object();
    entry["path"] = Json(d.path);
    entry["line"] = Json(d.line);
    entry["rule"] = Json(d.rule);
    entry["message"] = Json(d.message);
    arr.push_back(std::move(entry));
  }
  return arr.dump(2) + "\n";
}

std::string to_sarif(const std::vector<Diagnostic>& diags) {
  Json rules = Json::array();
  for (const Rule& r : rule_registry()) {
    Json rule = Json::object();
    rule["id"] = Json(r.info.id);
    rule["name"] = Json(r.info.name);
    Json short_desc = Json::object();
    short_desc["text"] = Json(r.info.summary);
    rule["shortDescription"] = std::move(short_desc);
    Json help = Json::object();
    help["text"] = Json(r.info.rationale);
    rule["help"] = std::move(help);
    Json props = Json::object();
    if (!r.info.waiver.empty()) props["waiverToken"] = Json(r.info.waiver);
    rule["properties"] = std::move(props);
    rules.push_back(std::move(rule));
  }
  // The waiver machinery's own diagnostics appear in results; list them in
  // the rule table too so every result's ruleId resolves.
  for (const char* id : {"waiver-syntax", "waiver-unused"}) {
    Json rule = Json::object();
    rule["id"] = Json(id);
    Json short_desc = Json::object();
    short_desc["text"] =
        Json(std::string(id) == "waiver-syntax"
                 ? "malformed lts-lint waiver annotation"
                 : "waiver that suppresses no violation");
    rule["shortDescription"] = std::move(short_desc);
    rules.push_back(std::move(rule));
  }

  Json driver = Json::object();
  driver["name"] = Json("lts_lint");
  driver["informationUri"] =
      Json("https://github.com/lts/lts/blob/main/tools/lts_lint");
  driver["version"] = Json("2.0.0");
  driver["rules"] = std::move(rules);
  Json tool = Json::object();
  tool["driver"] = std::move(driver);

  Json results = Json::array();
  for (const Diagnostic& d : diags) {
    Json result = Json::object();
    result["ruleId"] = Json(d.rule);
    result["level"] = Json("error");
    Json message = Json::object();
    message["text"] = Json(d.message);
    result["message"] = std::move(message);
    Json artifact = Json::object();
    artifact["uri"] = Json(d.path);
    Json region = Json::object();
    region["startLine"] = Json(d.line == 0 ? std::size_t{1} : d.line);
    Json physical = Json::object();
    physical["artifactLocation"] = std::move(artifact);
    physical["region"] = std::move(region);
    Json location = Json::object();
    location["physicalLocation"] = std::move(physical);
    Json locations = Json::array();
    locations.push_back(std::move(location));
    result["locations"] = std::move(locations);
    results.push_back(std::move(result));
  }

  Json run = Json::object();
  run["tool"] = std::move(tool);
  run["results"] = std::move(results);
  Json runs = Json::array();
  runs.push_back(std::move(run));

  Json doc = Json::object();
  doc["$schema"] = Json(
      "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json");
  doc["version"] = Json("2.1.0");
  doc["runs"] = std::move(runs);
  return doc.dump(2) + "\n";
}

std::string fingerprint(const Diagnostic& d) {
  // Unit separator: cannot occur in paths, rule ids, or messages.
  return d.path + '\x1f' + d.rule + '\x1f' + d.message;
}

std::string write_baseline(const std::vector<Diagnostic>& diags) {
  Baseline counts;
  for (const Diagnostic& d : diags) {
    ++counts[fingerprint(d)];
  }
  Json arr = Json::array();
  for (const auto& [fp, count] : counts) {
    const std::size_t first = fp.find('\x1f');
    const std::size_t second = fp.find('\x1f', first + 1);
    Json entry = Json::object();
    entry["path"] = Json(fp.substr(0, first));
    entry["rule"] = Json(fp.substr(first + 1, second - first - 1));
    entry["message"] = Json(fp.substr(second + 1));
    entry["count"] = Json(count);
    arr.push_back(std::move(entry));
  }
  return arr.dump(2) + "\n";
}

Baseline load_baseline(const std::string& text) {
  Baseline counts;
  if (is_blank(text)) return counts;
  const Json doc = Json::parse(text);
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const Json& entry = doc.at(i);
    Diagnostic d;
    d.path = entry.at("path").as_string();
    d.rule = entry.at("rule").as_string();
    d.message = entry.at("message").as_string();
    const int count = entry.contains("count") ? entry.int_at("count") : 1;
    counts[fingerprint(d)] += count;
  }
  return counts;
}

std::vector<Diagnostic> diff_baseline(const std::vector<Diagnostic>& diags,
                                      const Baseline& baseline) {
  Baseline remaining = baseline;
  std::vector<Diagnostic> fresh;
  for (const Diagnostic& d : diags) {
    const auto it = remaining.find(fingerprint(d));
    if (it != remaining.end() && it->second > 0) {
      --it->second;
      continue;
    }
    fresh.push_back(d);
  }
  return fresh;
}

}  // namespace lts::lint

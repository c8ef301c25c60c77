#include "telemetry/promql.hpp"

#include <cctype>

#include "util/string_util.hpp"

namespace lts::telemetry {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  PromQuery parse() {
    PromQuery query;
    const std::string ident = read_identifier();
    if (peek() == '(') {
      query.function = function_from_name(ident);
      expect('(');
      parse_instant(query);
      expect('[');
      query.range = read_duration();
      expect(']');
      expect(')');
    } else {
      query.function = PromQuery::Function::kInstant;
      parse_instant_tail(query, ident);
    }
    skip_ws();
    LTS_REQUIRE(pos_ == s_.size(),
                error("trailing characters after query"));
    return query;
  }

 private:
  std::string error(const std::string& what) const {
    return strformat("promql: %s at offset %zu in '%s'", what.c_str(), pos_,
                     s_.c_str());
  }

  static PromQuery::Function function_from_name(const std::string& name) {
    if (name == "rate") return PromQuery::Function::kRate;
    if (name == "avg_over_time") return PromQuery::Function::kAvgOverTime;
    if (name == "max_over_time") return PromQuery::Function::kMaxOverTime;
    if (name == "stddev_over_time") {
      return PromQuery::Function::kStddevOverTime;
    }
    throw Error("promql: unknown function '" + name + "'");
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(
                                   s_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  void expect(char c) {
    LTS_REQUIRE(peek() == c, error(strformat("expected '%c'", c)));
    ++pos_;
  }

  std::string read_identifier() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '_' || s_[pos_] == ':')) {
      ++pos_;
    }
    LTS_REQUIRE(pos_ > start, error("expected identifier"));
    return s_.substr(start, pos_ - start);
  }

  std::string read_quoted() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      out += s_[pos_++];
    }
    LTS_REQUIRE(pos_ < s_.size(), error("unterminated string"));
    ++pos_;
    return out;
  }

  SimTime read_duration() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    LTS_REQUIRE(pos_ > start, error("expected duration"));
    const double value = std::stod(s_.substr(start, pos_ - start));
    LTS_REQUIRE(pos_ < s_.size(), error("expected duration unit"));
    const char unit = s_[pos_++];
    switch (unit) {
      case 's': return value;
      case 'm': return value * 60.0;
      case 'h': return value * 3600.0;
      default: throw Error(error("unknown duration unit"));
    }
  }

  void parse_instant(PromQuery& query) {
    parse_instant_tail(query, read_identifier());
  }

  void parse_instant_tail(PromQuery& query, const std::string& metric) {
    query.metric = metric;
    if (peek() == '{') {
      ++pos_;
      if (peek() != '}') {
        while (true) {
          const std::string key = read_identifier();
          expect('=');
          query.labels[key] = read_quoted();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          break;
        }
      }
      expect('}');
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool labels_match(const Labels& selector, const Labels& series) {
  for (const auto& [key, value] : selector) {
    const auto it = series.find(key);
    if (it == series.end() || it->second != value) return false;
  }
  return true;
}

}  // namespace

std::string PromQuery::to_string() const {
  std::string instant = metric;
  if (!labels.empty()) {
    instant += '{';
    bool first = true;
    for (const auto& [key, value] : labels) {
      if (!first) instant += ',';
      first = false;
      instant += key + "=\"" + value + '"';
    }
    instant += '}';
  }
  const auto with_range = [&](const char* fn) {
    return strformat("%s(%s[%.0fs])", fn, instant.c_str(), range);
  };
  switch (function) {
    case Function::kInstant: return instant;
    case Function::kRate: return with_range("rate");
    case Function::kAvgOverTime: return with_range("avg_over_time");
    case Function::kMaxOverTime: return with_range("max_over_time");
    case Function::kStddevOverTime: return with_range("stddev_over_time");
  }
  return instant;
}

PromQuery parse_promql(const std::string& text) {
  return Parser(text).parse();
}

std::vector<PromResult> eval_promql(const PromQuery& query, const Tsdb& tsdb,
                                    SimTime now) {
  std::vector<PromResult> results;
  for (const auto& [labels, series] : tsdb.select(query.metric)) {
    if (!labels_match(query.labels, labels)) continue;
    std::optional<double> value;
    switch (query.function) {
      case PromQuery::Function::kInstant:
        if (!series->empty()) value = series->latest().v;
        break;
      case PromQuery::Function::kRate: {
        const double r = tsdb.rate(query.metric, labels, now, query.range);
        // rate() of <2 samples is "no data", mirroring Prometheus.
        const auto [first, last] = series->window(now - query.range, now);
        if (last - first >= 2) value = r;
        break;
      }
      case PromQuery::Function::kAvgOverTime:
        value = tsdb.avg_over_time(query.metric, labels, now, query.range);
        break;
      case PromQuery::Function::kMaxOverTime:
        value = tsdb.max_over_time(query.metric, labels, now, query.range);
        break;
      case PromQuery::Function::kStddevOverTime:
        value = tsdb.stddev_over_time(query.metric, labels, now, query.range);
        break;
    }
    if (value.has_value()) {
      results.push_back(PromResult{labels, *value});
    }
  }
  return results;
}

std::optional<double> promql_scalar(const std::string& text, const Tsdb& tsdb,
                                    SimTime now) {
  const auto results = eval_promql(parse_promql(text), tsdb, now);
  if (results.empty()) return std::nullopt;
  LTS_REQUIRE(results.size() == 1,
              "promql_scalar: query matched multiple series: " + text);
  return results.front().value;
}

}  // namespace lts::telemetry

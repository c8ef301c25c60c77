#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace lts {

namespace {

void indent_to(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    // JSON has no NaN/Inf; emit null. Model weights are always finite, so
    // this path only fires on corrupted inputs and is better than UB text.
    out += "null";
    return;
  }
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    LTS_REQUIRE(pos_ == s_.size(), "Json: trailing characters after document");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    LTS_REQUIRE(pos_ < s_.size(), "Json: unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    LTS_REQUIRE(peek() == c, std::string("Json: expected '") + c + "'");
    ++pos_;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': return parse_keyword("true", Json(true));
      case 'f': return parse_keyword("false", Json(false));
      case 'n': return parse_keyword("null", Json(nullptr));
      default: return parse_number();
    }
  }

  Json parse_keyword(const char* kw, Json value) {
    skip_ws();
    const std::size_t len = std::string(kw).size();
    LTS_REQUIRE(s_.compare(pos_, len, kw) == 0, "Json: bad keyword");
    pos_ += len;
    return value;
  }

  Json parse_number() {
    skip_ws();
    const char* begin = s_.data() + pos_;
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(begin, s_.data() + s_.size(), value);
    LTS_REQUIRE(ec == std::errc() && ptr != begin, "Json: malformed number");
    pos_ = static_cast<std::size_t>(ptr - s_.data());
    return Json(value);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      LTS_REQUIRE(pos_ < s_.size(), "Json: unterminated string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        LTS_REQUIRE(pos_ < s_.size(), "Json: bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            LTS_REQUIRE(pos_ + 4 <= s_.size(), "Json: bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else throw Error("Json: bad hex digit in \\u escape");
            }
            // Encode as UTF-8 (basic multilingual plane only; LTS never
            // emits surrogate pairs).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: throw Error("Json: unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
      } else if (c == ']') {
        ++pos_;
        break;
      } else {
        throw Error("Json: expected ',' or ']' in array");
      }
    }
    return Json(std::move(arr));
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      expect(':');
      obj[std::move(key)] = parse_value();
      const char c = peek();
      if (c == ',') {
        ++pos_;
      } else if (c == '}') {
        ++pos_;
        break;
      } else {
        throw Error("Json: expected ',' or '}' in object");
      }
    }
    return Json(std::move(obj));
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Json::as_bool() const {
  LTS_REQUIRE(type_ == Type::kBool, "Json: not a bool");
  return bool_;
}

double Json::as_double() const {
  LTS_REQUIRE(type_ == Type::kNumber, "Json: not a number");
  return num_;
}

namespace {

constexpr double kIntMin = -2147483648.0;  // [kIntMin, kIntEnd) is int's
constexpr double kIntEnd = 2147483648.0;
constexpr double kUintEnd = 18446744073709551616.0;  // 2^64

/// The number `v` holds when it is an integer in [lo, end); otherwise an
/// lts::Error naming `key` (an array element has none). NaN fails the
/// equality and the infinities the range, so finiteness needs no test.
double integer_in(const Json& v, double lo, double end, const char* type,
                  const std::string& key) {
  const double d = v.is_number() ? v.as_double() : std::nan("");
  LTS_REQUIRE(d == std::trunc(d) && d >= lo && d < end,
              "Json: " + (key.empty() ? "value" : "'" + key + "'") +
                  " must be " + type + ", got " + v.dump());
  return d;
}

}  // namespace

int Json::as_int() const {
  return static_cast<int>(integer_in(*this, kIntMin, kIntEnd, "an int", {}));
}

int Json::int_at(const std::string& key) const {
  return static_cast<int>(integer_in(at(key), kIntMin, kIntEnd, "an int", key));
}

std::uint64_t Json::uint_at(const std::string& key) const {
  return static_cast<std::uint64_t>(
      integer_in(at(key), 0.0, kUintEnd, "a non-negative integer", key));
}

const std::string& Json::as_string() const {
  LTS_REQUIRE(type_ == Type::kString, "Json: not a string");
  return str_;
}

const JsonArray& Json::as_array() const {
  LTS_REQUIRE(type_ == Type::kArray, "Json: not an array");
  return *arr_;
}

JsonArray& Json::as_array() {
  LTS_REQUIRE(type_ == Type::kArray, "Json: not an array");
  if (arr_.use_count() > 1) arr_ = std::make_shared<JsonArray>(*arr_);
  return *arr_;
}

const JsonObject& Json::as_object() const {
  LTS_REQUIRE(type_ == Type::kObject, "Json: not an object");
  return *obj_;
}

JsonObject& Json::as_object() {
  LTS_REQUIRE(type_ == Type::kObject, "Json: not an object");
  if (obj_.use_count() > 1) obj_ = std::make_shared<JsonObject>(*obj_);
  return *obj_;
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  LTS_REQUIRE(it != obj.end(), "Json: missing key '" + key + "'");
  return it->second;
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) {
    type_ = Type::kObject;
    obj_ = std::make_shared<JsonObject>();
  }
  return as_object()[key];
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

const Json& Json::at(std::size_t i) const {
  const auto& arr = as_array();
  LTS_REQUIRE(i < arr.size(), "Json: array index out of range");
  return arr[i];
}

void Json::push_back(Json v) {
  if (type_ == Type::kNull) {
    type_ = Type::kArray;
    arr_ = std::make_shared<JsonArray>();
  }
  as_array().push_back(std::move(v));
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  return 0;
}

void Json::dump_impl(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: dump_number(out, num_); break;
    case Type::kString: dump_string(out, str_); break;
    case Type::kArray: {
      const auto& arr = *arr_;
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i > 0) out += ',';
        indent_to(out, indent, depth + 1);
        arr[i].dump_impl(out, indent, depth + 1);
      }
      indent_to(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      const auto& obj = *obj_;
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out += ',';
        first = false;
        indent_to(out, indent, depth + 1);
        dump_string(out, key);
        out += ':';
        if (indent > 0) out += ' ';
        value.dump_impl(out, indent, depth + 1);
      }
      indent_to(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

Json Json::from_doubles(const std::vector<double>& xs) {
  JsonArray arr;
  arr.reserve(xs.size());
  for (double x : xs) arr.emplace_back(x);
  return Json(std::move(arr));
}

std::vector<double> Json::to_doubles() const {
  const auto& arr = as_array();
  std::vector<double> out;
  out.reserve(arr.size());
  for (const auto& v : arr) out.push_back(v.as_double());
  return out;
}

}  // namespace lts

// Minimal JSON value type with parser and serializer.
//
// Used for model serialization (lts::ml::save_model/load_model) and for the
// rendered Kubernetes manifests' structured metadata. Supports the JSON
// subset LTS emits: objects, arrays, strings, doubles, bools, null. Numbers
// round-trip through double, which is sufficient for model parameters.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace lts {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

/// A JSON value. Value-semantic; nested containers are heap-allocated.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double d) : type_(Type::kNumber), num_(d) {}
  Json(int i) : type_(Type::kNumber), num_(i) {}
  Json(std::size_t i) : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Json(JsonArray a)
      : type_(Type::kArray), arr_(std::make_shared<JsonArray>(std::move(a))) {}
  Json(JsonObject o)
      : type_(Type::kObject),
        obj_(std::make_shared<JsonObject>(std::move(o))) {}

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_bool() const { return type_ == Type::kBool; }

  bool as_bool() const;
  double as_double() const;
  /// Checked: throws an lts::Error unless the number is an integer (finite,
  /// no fraction) in int's range.
  int as_int() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  JsonArray& as_array();
  const JsonObject& as_object() const;
  JsonObject& as_object();

  /// Object access; throws if not an object / key missing (const form).
  const Json& at(const std::string& key) const;
  Json& operator[](const std::string& key);
  bool contains(const std::string& key) const;
  /// at(key) read under as_int()'s checks, as an int or as an unsigned
  /// 64-bit integer; a failure names `key`.
  int int_at(const std::string& key) const;
  std::uint64_t uint_at(const std::string& key) const;

  /// Array element access with bounds check.
  const Json& at(std::size_t i) const;
  void push_back(Json v);
  std::size_t size() const;

  /// Serializes compactly; `indent` > 0 pretty-prints.
  std::string dump(int indent = 0) const;

  /// Parses a complete JSON document; throws lts::Error on malformed input.
  static Json parse(const std::string& text);

  /// Convenience: vector<double> <-> JSON array.
  static Json from_doubles(const std::vector<double>& xs);
  std::vector<double> to_doubles() const;

 private:
  void dump_impl(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::shared_ptr<JsonArray> arr_;
  std::shared_ptr<JsonObject> obj_;
};

}  // namespace lts

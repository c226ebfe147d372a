#pragma once
// Minimal JSON value + writer for the structured flow/batch reports.
//
// Only what the reports need: null/bool/number/string/array/object values,
// insertion-ordered object keys (reports stay diffable), and a pretty or
// compact dumper with correct string escaping.  No parser — reports are
// write-only from this side; tests assert on the emitted text.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sitm {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double d) : kind_(Kind::kNumber), num_(d) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(long v) : Json(static_cast<double>(v)) {}
  Json(long long v) : Json(static_cast<double>(v)) {}
  Json(unsigned v) : Json(static_cast<double>(v)) {}
  Json(unsigned long v) : Json(static_cast<double>(v)) {}
  Json(unsigned long long v) : Json(static_cast<double>(v)) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Json(std::string_view s) : Json(std::string(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }

  /// Value accessors for parsed documents; each returns the default-
  /// constructed value when the kind does not match (callers validate kind()
  /// first when the distinction matters).
  bool bool_value() const { return bool_; }
  double number() const { return num_; }
  const std::string& string_value() const { return str_; }

  /// Array append.
  void push(Json v);
  std::size_t size() const { return arr_.size(); }
  const std::vector<Json>& items() const { return arr_; }

  /// Object insert-or-overwrite; keys keep first-insertion order.
  void set(std::string_view key, Json v);
  /// Object lookup; nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return obj_;
  }

  /// Serialize.  indent = 0 emits one compact line; indent > 0 pretty-prints
  /// with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// JSON string escaping (quotes not included).
  static std::string escape(std::string_view s);

  /// Parse one JSON document (the full value grammar; `\uXXXX` escapes
  /// decode to UTF-8, surrogate pairs included).  Added for the serve
  /// front-end's request protocol — reports remain write-only, but the
  /// server must read newline-delimited request objects.  Throws
  /// sitm::Error with the byte offset on malformed input, trailing
  /// garbage, or nesting deeper than 256 levels (requests are untrusted).
  static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace sitm

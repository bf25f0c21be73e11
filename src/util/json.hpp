#pragma once
/// \file json.hpp
/// Minimal JSON helpers shared by the observability exporters, the bench
/// summary writer, and the campaign-server job specs.
///
/// Emission (json_string/json_number) is deterministic: the same values
/// always serialize to the same bytes, which the observability
/// determinism tests rely on. Parsing (json_parse + JsonValue) is a
/// small recursive-descent RFC 8259 reader: objects, arrays, strings
/// (with escapes), numbers via std::from_chars (locale-independent),
/// true/false/null; nesting depth is capped so hostile input cannot
/// blow the stack. Malformed input throws json_error with a byte offset.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace slipflow::util {

/// RFC 8259 string escaping (quotes included in the result).
inline std::string json_string(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
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
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

/// Shortest round-trippable decimal form; non-finite values become null
/// (JSON has no NaN/Inf). std::to_chars is locale-independent, so the
/// output stays valid JSON even if linked code calls setlocale().
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string json_number(long long v) { return std::to_string(v); }

/// Thrown by json_parse on malformed input; `offset` is the byte index
/// of the first offending character.
class json_error : public std::runtime_error {
 public:
  json_error(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at offset " + std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// A parsed JSON document. Object members are kept in a sorted map
/// (duplicate keys are a parse error), so re-serializing with dump() is
/// canonical: two specs that differ only in member order dump to the
/// same bytes — which is what the warm-state cache keys on.
class JsonValue {
 public:
  enum class Kind { null, boolean, number, string, array, object };
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue, std::less<>>;

  JsonValue() = default;  // null
  JsonValue(bool b) : kind_(Kind::boolean), bool_(b) {}
  JsonValue(double d) : kind_(Kind::number), num_(d) {}
  JsonValue(long long i) : kind_(Kind::number), num_(static_cast<double>(i)) {}
  JsonValue(std::string s) : kind_(Kind::string), str_(std::move(s)) {}
  JsonValue(const char* s) : kind_(Kind::string), str_(s) {}
  JsonValue(Array a) : kind_(Kind::array), arr_(std::move(a)) {}
  JsonValue(Object o) : kind_(Kind::object), obj_(std::move(o)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::null; }
  bool is_bool() const { return kind_ == Kind::boolean; }
  bool is_number() const { return kind_ == Kind::number; }
  bool is_string() const { return kind_ == Kind::string; }
  bool is_array() const { return kind_ == Kind::array; }
  bool is_object() const { return kind_ == Kind::object; }

  /// Typed accessors; throw json_error(offset 0) on a kind mismatch so
  /// spec-validation call sites get a diagnostic, not UB.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup: nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;

  /// Convenience getters with defaults for flat config objects. A
  /// present member of the wrong kind throws json_error naming `key`, as
  /// does an int_or member that is fractional or beyond long long.
  double number_or(std::string_view key, double fallback) const;
  long long int_or(std::string_view key, long long fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
  std::string string_or(std::string_view key, const std::string& fallback) const;

  /// Canonical serialization: sorted object keys, json_number formatting,
  /// no whitespace. Deterministic for equal values.
  std::string dump() const;

 private:
  Kind kind_ = Kind::null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Parse one JSON document; trailing non-whitespace is an error. The
/// nesting depth of arrays/objects is capped at `max_depth`.
JsonValue json_parse(std::string_view text, int max_depth = 64);

}  // namespace slipflow::util

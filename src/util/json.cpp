#include "util/json.hpp"

#include <cmath>

namespace slipflow::util {

namespace {

[[noreturn]] void fail(const std::string& what, std::size_t at) {
  throw json_error(what, at);
}

/// Recursive-descent parser over a string_view. Position-tracking only;
/// every error names the byte offset of the offending character.
class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  JsonValue run() {
    skip_ws();
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document", pos_);
    return v;
  }

 private:
  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c)
      fail(std::string("expected '") + c + "'", pos_);
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > max_depth_) fail("nesting too deep", pos_);
    if (eof()) fail("unexpected end of input", pos_);
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("invalid literal", pos_);
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("invalid literal", pos_);
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("invalid literal", pos_);
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    const std::size_t open = pos_;
    expect('{');
    JsonValue::Object obj;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key", pos_);
      const std::size_t key_at = pos_;
      std::string key = parse_string();
      if (obj.count(key) != 0) fail("duplicate key \"" + key + "\"", key_at);
      skip_ws();
      expect(':');
      skip_ws();
      obj.emplace(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated object", open);
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(obj));
    }
  }

  JsonValue parse_array(int depth) {
    const std::size_t open = pos_;
    expect('[');
    JsonValue::Array arr;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    for (;;) {
      skip_ws();
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated array", open);
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (eof()) fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string", pos_ - 1);
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) fail("unterminated escape", pos_);
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape", pos_ - 1);
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape", pos_);
    unsigned v = 0;
    const auto res =
        std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4, v, 16);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_ + 4)
      fail("invalid \\u escape", pos_);
    pos_ += 4;
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  void append_unicode_escape(std::string& out) {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      // high surrogate: a low surrogate must follow
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u')
        fail("high surrogate without low surrogate", pos_);
      pos_ += 2;
      const unsigned lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF)
        fail("invalid low surrogate", pos_ - 4);
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate", pos_ - 4);
    }
    append_utf8(out, cp);
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    // Validate the RFC 8259 grammar first — from_chars is laxer (it
    // accepts "1." and leading '+', JSON does not).
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9')
      fail("invalid number", start);
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        fail("digit expected after decimal point", pos_);
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9')
        fail("digit expected in exponent", pos_);
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    double v = 0.0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (res.ec == std::errc::result_out_of_range) {
      // RFC 8259 allows implementations to approximate; saturate like
      // strtod would instead of rejecting 1e999.
      v = text_[start] == '-' ? -HUGE_VAL : HUGE_VAL;
    } else if (res.ec != std::errc{} ||
               res.ptr != text_.data() + pos_) {
      fail("invalid number", start);
    }
    return JsonValue(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int max_depth_;
};

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::boolean) fail("not a boolean", 0);
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::number) fail("not a number", 0);
  return num_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::string) fail("not a string", 0);
  return str_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (kind_ != Kind::array) fail("not an array", 0);
  return arr_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (kind_ != Kind::object) fail("not an object", 0);
  return obj_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::object) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_number()) fail("member \"" + std::string(key) + "\" is not a number", 0);
  return v->num_;
}

long long JsonValue::int_or(std::string_view key, long long fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_number())
    fail("member \"" + std::string(key) + "\" is not a number", 0);
  const double d = v->num_;
  if (d != std::trunc(d))
    fail("member \"" + std::string(key) + "\" is not an integer", 0);
  // Range-check before the cast: a double outside long long's range
  // (1e300, inf) would make the conversion undefined behaviour.
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (!(d >= -kLimit && d < kLimit))
    fail("member \"" + std::string(key) + "\" is out of integer range", 0);
  return static_cast<long long>(d);
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_bool())
    fail("member \"" + std::string(key) + "\" is not a boolean", 0);
  return v->bool_;
}

std::string JsonValue::string_or(std::string_view key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_string())
    fail("member \"" + std::string(key) + "\" is not a string", 0);
  return v->str_;
}

std::string JsonValue::dump() const {
  switch (kind_) {
    case Kind::null: return "null";
    case Kind::boolean: return bool_ ? "true" : "false";
    case Kind::number: return json_number(num_);
    case Kind::string: return json_string(str_);
    case Kind::array: {
      std::string out = "[";
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i != 0) out.push_back(',');
        out += arr_[i].dump();
      }
      out.push_back(']');
      return out;
    }
    case Kind::object: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out.push_back(',');
        first = false;
        out += json_string(k);
        out.push_back(':');
        out += v.dump();
      }
      out.push_back('}');
      return out;
    }
  }
  return "null";  // unreachable
}

JsonValue json_parse(std::string_view text, int max_depth) {
  return Parser(text, max_depth).run();
}

}  // namespace slipflow::util

#include "service/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "util/error.hpp"
#include "util/json_string.hpp"

namespace rsb::service::json {

Value Value::null() { return Value(); }

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::number_raw(std::string literal) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.scalar_ = std::move(literal);
  return v;
}

Value Value::number(std::int64_t value) {
  return number_raw(std::to_string(value));
}

Value Value::number(std::uint64_t value) {
  return number_raw(std::to_string(value));
}

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.scalar_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw InvalidArgument("json: " + what);
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) fail("not a boolean");
  return bool_;
}

std::int64_t Value::as_int() const {
  if (kind_ != Kind::kNumber) fail("not a number");
  std::int64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(), out);
  if (ec != std::errc() || ptr != scalar_.data() + scalar_.size()) {
    fail("not an integer literal: '" + scalar_ + "'");
  }
  return out;
}

std::uint64_t Value::as_uint() const {
  if (kind_ != Kind::kNumber) fail("not a number");
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(), out);
  if (ec != std::errc() || ptr != scalar_.data() + scalar_.size()) {
    fail("not an unsigned integer literal: '" + scalar_ + "'");
  }
  return out;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) fail("not a string");
  return scalar_;
}

const std::string& Value::raw_number() const {
  if (kind_ != Kind::kNumber) fail("not a number");
  return scalar_;
}

const std::vector<Value>& Value::items() const {
  if (kind_ != Kind::kArray) fail("not an array");
  return items_;
}

Value& Value::push(Value item) {
  if (kind_ != Kind::kArray) fail("not an array");
  items_.push_back(std::move(item));
  return items_.back();
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (kind_ != Kind::kObject) fail("not an object");
  return members_;
}

const Value* Value::find(const std::string& key) const {
  if (kind_ != Kind::kObject) fail("not an object");
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value& Value::set(const std::string& key, Value value) {
  if (kind_ != Kind::kObject) fail("not an object");
  members_.emplace_back(key, std::move(value));
  return *this;
}

void Value::serialize_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      out += scalar_;
      return;
    case Kind::kString:
      append_json_string(out, scalar_);
      return;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ',';
        items_[i].serialize_to(out);
      }
      out += ']';
      return;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        append_json_string(out, members_[i].first);
        out += ':';
        members_[i].second.serialize_to(out);
      }
      out += '}';
      return;
    }
  }
}

std::string Value::serialize() const {
  std::string out;
  serialize_to(out);
  return out;
}

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  int depth = 0;  // arrays/objects open around pos

  void skip_space() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (pos >= text.size() || text[pos] != c) {
      fail(std::string("expected '") + c + "' at offset " +
           std::to_string(pos));
    }
    ++pos;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text.compare(pos, len, literal) != 0) return false;
    pos += len;
    return true;
  }

  std::string parse_string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) fail("unterminated escape");
      const char e = text[pos++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          if (code > 0x7f) {
            // Never mangle: emitting `code & 0x7f` (or a lone UTF-8 byte)
            // would silently corrupt the string, and the byte-exact
            // round-trip contract above forbids transcoding. Non-ASCII
            // text travels as raw UTF-8 bytes, not \u escapes.
            char spelled[8];
            std::snprintf(spelled, sizeof(spelled), "\\u%04x", code);
            fail(std::string(spelled) +
                 " escapes above ASCII are not supported on this wire "
                 "(send non-ASCII text as raw UTF-8 bytes)");
          }
          out += static_cast<char>(code);
          break;
        }
        default:
          fail(std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  // The members after an opening '{', through the closing '}'.
  Value parse_object_body() {
    Value out = Value::object();
    skip_space();
    if (peek() == '}') {
      ++pos;
      return out;
    }
    while (true) {
      skip_space();
      std::string key = parse_string_body();
      skip_space();
      expect(':');
      out.set(key, parse_value());
      skip_space();
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect('}');
      return out;
    }
  }

  // The items after an opening '[', through the closing ']'.
  Value parse_array_body() {
    Value out = Value::array();
    skip_space();
    if (peek() == ']') {
      ++pos;
      return out;
    }
    while (true) {
      out.push(parse_value());
      skip_space();
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect(']');
      return out;
    }
  }

  Value parse_value() {
    skip_space();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth > kMaxNesting) {
        fail("nesting deeper than " + std::to_string(kMaxNesting) +
             " at offset " + std::to_string(pos));
      }
      ++pos;
      Value out = c == '{' ? parse_object_body() : parse_array_body();
      --depth;
      return out;
    }
    if (c == '"') return Value::string(parse_string_body());
    if (consume_literal("true")) return Value::boolean(true);
    if (consume_literal("false")) return Value::boolean(false);
    if (consume_literal("null")) return Value::null();
    // Number: the raw literal span (sign, digits, fraction, exponent).
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    if (pos == start || (pos == start + 1 && text[start] == '-')) {
      fail(std::string("unexpected character '") + c + "' at offset " +
           std::to_string(start));
    }
    return Value::number_raw(text.substr(start, pos - start));
  }
};

}  // namespace

Value Value::parse(const std::string& text) {
  Parser parser{text};
  Value out = parser.parse_value();
  parser.skip_space();
  if (parser.pos != text.size()) {
    fail("trailing bytes after JSON value at offset " +
         std::to_string(parser.pos));
  }
  return out;
}

}  // namespace rsb::service::json

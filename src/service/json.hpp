// Minimal JSON for the service wire protocol (src/service/server.hpp).
//
// The daemon speaks newline-delimited JSON; this module is the parser and
// writer both ends share. Two properties matter more than generality:
//
//  * byte-exact round trips — numbers are stored as their raw literal
//    text (never through a double), and objects preserve member order, so
//    parse(text).serialize() reproduces `text` modulo insignificant
//    whitespace. The loopback determinism tests compare streamed row
//    objects byte-for-byte after a parse/serialize hop, which only works
//    because nothing is reformatted;
//  * no allocator cleverness — messages are a few hundred bytes; values
//    are plain vectors and strings.
//
// Only what the wire needs: objects, arrays, strings (with the standard
// escapes; \uXXXX is parsed for ASCII code points only — an escape above
// 0x7F is an explicit parse error, never a silent mangle, and non-ASCII
// text travels as raw UTF-8 bytes instead), integers (raw),
// true/false/null, nested at most kMaxNesting levels deep. parse() throws
// InvalidArgument on malformed input.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rsb::service::json {

/// The deepest array/object nesting parse() accepts. The parser recurses
/// once per level, so without a cap one request line of '[' (well under
/// rsbd's line cap) overflows the server thread's stack; the protocol's
/// own messages nest a few levels deep.
constexpr int kMaxNesting = 256;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  static Value null();
  static Value boolean(bool b);
  /// A number from its raw literal ("42", "-1", "3.5"); emitted verbatim.
  static Value number_raw(std::string literal);
  static Value number(std::int64_t value);
  static Value number(std::uint64_t value);
  static Value string(std::string s);
  static Value array();
  static Value object();

  Kind kind() const noexcept { return kind_; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }

  /// Scalar accessors; throw InvalidArgument on kind mismatch (numbers
  /// additionally on non-integer literals for as_int/as_uint).
  bool as_bool() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  const std::string& as_string() const;   // string contents (unescaped)
  const std::string& raw_number() const;  // the literal text

  // --- arrays -----------------------------------------------------------
  const std::vector<Value>& items() const;
  Value& push(Value item);  // returns the stored item

  // --- objects (member order preserved) ---------------------------------
  const std::vector<std::pair<std::string, Value>>& members() const;
  /// The member value, or nullptr when absent.
  const Value* find(const std::string& key) const;
  /// Appends a member (no duplicate check); returns *this for chaining.
  Value& set(const std::string& key, Value value);

  /// Compact serialization (no insignificant whitespace); objects emit
  /// members in stored order, numbers emit their raw literal.
  std::string serialize() const;
  void serialize_to(std::string& out) const;

  /// Parses exactly one JSON value spanning the whole input (surrounding
  /// whitespace allowed). Throws InvalidArgument on malformed input.
  static Value parse(const std::string& text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string scalar_;  // number literal or string contents
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

}  // namespace rsb::service::json

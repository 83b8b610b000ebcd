// A tiny JSON reader for the sweep store's record files.
//
// The store writes its records (and the work queue its manifests) in the
// same hand-rendered JSON dialect the bench output uses; this is the
// matching reader. It is a full, strict JSON parser — objects, arrays,
// strings with the common escapes, numbers via strtod (so a %.17g
// rendering round-trips to the exact same double), true/false/null — but
// deliberately small: it materializes one immutable JsonValue tree and
// offers lookup helpers, nothing else. Parse errors throw std::runtime_error
// with the byte offset, which the store turns into record quarantine.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ides {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolValue = false;
  double numberValue = 0.0;
  std::string stringValue;
  std::vector<JsonValue> items;  ///< array elements
  /// Object members in document order (records care about field order).
  std::vector<std::pair<std::string, JsonValue>> members;

  [[nodiscard]] bool isObject() const { return kind == Kind::Object; }
  [[nodiscard]] bool isArray() const { return kind == Kind::Array; }

  /// Member lookup (first match); null when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Typed member accessors; throw std::runtime_error naming the key when
  /// it is absent or of the wrong kind (the store's schema checks).
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  [[nodiscard]] double numberAt(std::string_view key) const;
  [[nodiscard]] std::int64_t intAt(std::string_view key) const;
  [[nodiscard]] bool boolAt(std::string_view key) const;
  [[nodiscard]] const std::string& stringAt(std::string_view key) const;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). Throws std::runtime_error with the byte offset on malformed
/// input.
[[nodiscard]] JsonValue parseJson(std::string_view text);

/// Writer-side counterpart for every hand-rendered JSON emitter in the
/// tree: `value` as a quoted JSON string. '"', '\\' and every byte below
/// 0x20 are escaped (\n, \r, \t, \b, \f, else \u00XX), so the result is
/// valid JSON whatever bytes a client sent; parseJson undoes each escape.
/// Bytes from 0x20 up pass through unchanged.
[[nodiscard]] std::string jsonQuote(std::string_view value);

}  // namespace ides

//===- Json.h - Minimal JSON value parser for serve frames ------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON reader for the serve protocol. The
/// repo already has a streaming *writer* (support/JsonWriter.h); this is
/// its input-side counterpart, sized for one request frame at a time.
/// It is deliberately strict (RFC 8259 grammar, no comments, no
/// trailing commas) and hardened for untrusted input: nesting depth and
/// total element counts are capped so a hostile frame cannot stack- or
/// heap-exhaust the daemon. Errors carry a byte offset for typed error
/// responses.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_SERVER_JSON_H
#define IGEN_SERVER_JSON_H

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace igen {
namespace server {

class JsonValue;
struct JsonMember;
using JsonArray = std::vector<JsonValue>;

namespace detail {
class JsonParser;
} // namespace detail

/// A parsed JSON value. Numbers keep both the double value and the raw
/// spelling: eval requests may pass interval endpoints as decimal text,
/// and the raw spelling lets callers re-parse with directed rounding.
///
/// Containers own their children inline (array elements, or object
/// members in document order) in one vector each, not in a map node or
/// behind a shared_ptr per value.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() : K(Kind::Null) {}
  explicit JsonValue(bool B) : K(Kind::Bool), BoolV(B) {}
  explicit JsonValue(double D, std::string Raw = "")
      : K(Kind::Number), NumV(D), StrV(std::move(Raw)) {}
  explicit JsonValue(std::string S) : K(Kind::String), StrV(std::move(S)) {}
  explicit JsonValue(JsonArray A) : K(Kind::Array), Items(std::move(A)) {}

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolValue() const { return BoolV; }
  double numberValue() const { return NumV; }
  /// Raw spelling for numbers; the decoded text for strings.
  const std::string &stringValue() const { return StrV; }
  /// Array elements (empty for anything but an array).
  const JsonArray &arrayValue() const { return Items; }

  /// Object member lookup; returns nullptr when absent or not an object.
  /// A key sent twice resolves to its last occurrence.
  const JsonValue *member(std::string_view Name) const;

private:
  friend class detail::JsonParser;

  Kind K;
  bool BoolV = false;
  double NumV = 0.0;
  std::string StrV;
  JsonArray Items;
  std::vector<JsonMember> Members;
};

struct JsonMember {
  std::string Key;
  JsonValue Value;
};

inline const JsonValue *JsonValue::member(std::string_view Name) const {
  for (size_t I = Members.size(); I-- > 0;)
    if (Members[I].Key == Name)
      return &Members[I].Value;
  return nullptr;
}

/// Parse limits. The defaults comfortably fit every legitimate serve
/// frame while bounding adversarial ones.
struct JsonLimits {
  size_t MaxDepth = 32;
  size_t MaxElements = 1 << 16; ///< total values across the document
  size_t MaxStringBytes = 1 << 20;
};

struct JsonParseResult {
  bool Ok = false;
  JsonValue Value;
  std::string Error;   ///< empty on success
  size_t ErrorOffset = 0;
};

/// Parses exactly one JSON document from \p Text (trailing whitespace
/// allowed, trailing garbage is an error). Numbers are converted under
/// round-to-nearest whatever the calling thread's rounding mode, so the
/// same text always yields the same double.
JsonParseResult parseJson(std::string_view Text,
                          const JsonLimits &Limits = JsonLimits());

/// Escapes \p S as the body of a JSON string literal (no quotes added).
/// Mirrors support/JsonWriter.h so server code composing error strings
/// by hand stays consistent with the streaming writer.
std::string jsonEscape(std::string_view S);

} // namespace server
} // namespace igen

#endif // IGEN_SERVER_JSON_H

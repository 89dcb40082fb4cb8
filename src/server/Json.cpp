//===- Json.cpp - Minimal JSON value parser for serve frames -----------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/Json.h"

#include "interval/Rounding.h"

#include <charconv>
#include <cstdlib>
#include <cstdio>
#include <cstring>

using namespace igen;
using namespace igen::server;

namespace igen {
namespace server {
namespace detail {

/// Recursive-descent parser. Every value is parsed straight into its
/// final place in the parent container.
class JsonParser {
public:
  JsonParser(std::string_view Text, const JsonLimits &Limits)
      : Text(Text), Limits(Limits) {}

  JsonParseResult run() {
    // Decimal-to-double conversion honours the thread's rounding mode
    // (strtod, and from_chars for some inputs), so pin round-to-nearest:
    // the same text must give the same double on every thread. Free when
    // the thread's mode is already known to be nearest.
    RoundNearestScope Nearest;
    JsonParseResult R;
    skipWs();
    JsonValue V;
    if (!parseValue(V, 0)) {
      R.Error = Err;
      R.ErrorOffset = ErrOff;
      return R;
    }
    skipWs();
    if (Pos != Text.size()) {
      R.Error = "trailing characters after JSON value";
      R.ErrorOffset = Pos;
      return R;
    }
    R.Ok = true;
    R.Value = std::move(V);
    return R;
  }

private:
  std::string_view Text;
  const JsonLimits &Limits;
  size_t Pos = 0;
  size_t Elements = 0;
  std::string Err;
  size_t ErrOff = 0;

  bool fail(const char *Msg) {
    if (Err.empty()) {
      Err = Msg;
      ErrOff = Pos;
    }
    return false;
  }

  bool atEnd() const { return Pos >= Text.size(); }
  char peek() const { return Text[Pos]; }

  void skipWs() {
    while (!atEnd()) {
      char C = Text[Pos];
      if (C == ' ' || C == '\t' || C == '\n' || C == '\r')
        ++Pos;
      else
        break;
    }
  }

  bool countElement() {
    if (++Elements > Limits.MaxElements)
      return fail("document has too many elements");
    return true;
  }

  bool literal(const char *Word) {
    size_t N = std::strlen(Word);
    if (Text.size() - Pos < N || Text.compare(Pos, N, Word) != 0)
      return fail("invalid literal");
    Pos += N;
    return true;
  }

  bool parseValue(JsonValue &Out, size_t Depth) {
    if (Depth > Limits.MaxDepth)
      return fail("nesting too deep");
    if (!countElement())
      return false;
    if (atEnd())
      return fail("unexpected end of input");
    char C = peek();
    switch (C) {
    case 'n':
      return literal("null");
    case 't':
      Out.K = JsonValue::Kind::Bool;
      Out.BoolV = true;
      return literal("true");
    case 'f':
      Out.K = JsonValue::Kind::Bool;
      return literal("false");
    case '"':
      Out.K = JsonValue::Kind::String;
      return parseString(Out.StrV);
    case '[':
      return parseArray(Out, Depth);
    case '{':
      return parseObject(Out, Depth);
    default:
      if (C == '-' || (C >= '0' && C <= '9'))
        return parseNumber(Out);
      return fail("unexpected character");
    }
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (!atEnd() && peek() == '-')
      ++Pos;
    if (atEnd() || peek() < '0' || peek() > '9')
      return fail("invalid number");
    if (peek() == '0') {
      ++Pos;
    } else {
      while (!atEnd() && peek() >= '0' && peek() <= '9')
        ++Pos;
    }
    if (!atEnd() && peek() == '.') {
      ++Pos;
      if (atEnd() || peek() < '0' || peek() > '9')
        return fail("invalid number");
      while (!atEnd() && peek() >= '0' && peek() <= '9')
        ++Pos;
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
      ++Pos;
      if (!atEnd() && (peek() == '+' || peek() == '-'))
        ++Pos;
      if (atEnd() || peek() < '0' || peek() > '9')
        return fail("invalid number");
      while (!atEnd() && peek() >= '0' && peek() <= '9')
        ++Pos;
    }
    const char *First = Text.data() + Start, *Last = Text.data() + Pos;
    double V = 0.0;
    std::from_chars_result R = std::from_chars(First, Last, V);
    if (R.ec == std::errc::result_out_of_range) {
      // from_chars leaves V untouched out of range; strtod gives the
      // conventional +-inf on overflow and 0 or a subnormal on underflow.
      // Overflow to +-inf is accepted; the raw spelling is preserved so
      // callers that care can reject or re-round it themselves.
      std::string Raw(First, Last);
      V = std::strtod(Raw.c_str(), nullptr);
    } else if (R.ec != std::errc() || R.ptr != Last) {
      return fail("invalid number");
    }
    Out.K = JsonValue::Kind::Number;
    Out.NumV = V;
    Out.StrV.assign(First, Last);
    return true;
  }

  static bool hexDigit(char C, unsigned &V) {
    if (C >= '0' && C <= '9') {
      V = unsigned(C - '0');
      return true;
    }
    if (C >= 'a' && C <= 'f') {
      V = unsigned(C - 'a' + 10);
      return true;
    }
    if (C >= 'A' && C <= 'F') {
      V = unsigned(C - 'A' + 10);
      return true;
    }
    return false;
  }

  bool parseHex4(unsigned &Out) {
    if (Text.size() - Pos < 4)
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      unsigned D;
      if (!hexDigit(Text[Pos + size_t(I)], D))
        return fail("invalid \\u escape");
      Out = (Out << 4) | D;
    }
    Pos += 4;
    return true;
  }

  void appendUtf8(std::string &S, unsigned CP) {
    if (CP < 0x80) {
      S.push_back(char(CP));
    } else if (CP < 0x800) {
      S.push_back(char(0xC0 | (CP >> 6)));
      S.push_back(char(0x80 | (CP & 0x3F)));
    } else if (CP < 0x10000) {
      S.push_back(char(0xE0 | (CP >> 12)));
      S.push_back(char(0x80 | ((CP >> 6) & 0x3F)));
      S.push_back(char(0x80 | (CP & 0x3F)));
    } else {
      S.push_back(char(0xF0 | (CP >> 18)));
      S.push_back(char(0x80 | ((CP >> 12) & 0x3F)));
      S.push_back(char(0x80 | ((CP >> 6) & 0x3F)));
      S.push_back(char(0x80 | (CP & 0x3F)));
    }
  }

  static bool plainStringByte(char C) {
    return C != '"' && C != '\\' && (unsigned char)C >= 0x20;
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (true) {
      if (atEnd())
        return fail("unterminated string");
      if (Out.size() > Limits.MaxStringBytes)
        return fail("string too long");
      unsigned char C = (unsigned char)Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        // Copy the whole run of plain characters at once. The run stops
        // one byte past the length limit, so the check above still fires
        // at the same offset as a byte-at-a-time copy would.
        size_t End = Pos + 1;
        size_t Cap = Pos + (Limits.MaxStringBytes + 1 - Out.size());
        while (End < Text.size() && End < Cap && plainStringByte(Text[End]))
          ++End;
        Out.append(Text.data() + Pos, End - Pos);
        Pos = End;
        continue;
      }
      ++Pos;
      if (atEnd())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"': Out.push_back('"'); break;
      case '\\': Out.push_back('\\'); break;
      case '/': Out.push_back('/'); break;
      case 'b': Out.push_back('\b'); break;
      case 'f': Out.push_back('\f'); break;
      case 'n': Out.push_back('\n'); break;
      case 'r': Out.push_back('\r'); break;
      case 't': Out.push_back('\t'); break;
      case 'u': {
        unsigned CP;
        if (!parseHex4(CP))
          return false;
        if (CP >= 0xD800 && CP <= 0xDBFF) {
          // Surrogate pair.
          if (Text.size() - Pos < 2 || Text[Pos] != '\\' ||
              Text[Pos + 1] != 'u')
            return fail("unpaired surrogate");
          Pos += 2;
          unsigned Low;
          if (!parseHex4(Low))
            return false;
          if (Low < 0xDC00 || Low > 0xDFFF)
            return fail("invalid low surrogate");
          CP = 0x10000 + ((CP - 0xD800) << 10) + (Low - 0xDC00);
        } else if (CP >= 0xDC00 && CP <= 0xDFFF) {
          return fail("unpaired surrogate");
        }
        appendUtf8(Out, CP);
        break;
      }
      default:
        return fail("invalid escape");
      }
    }
  }

  bool parseArray(JsonValue &Out, size_t Depth) {
    ++Pos; // '['
    Out.K = JsonValue::Kind::Array;
    skipWs();
    if (!atEnd() && peek() == ']') {
      ++Pos;
      return true;
    }
    Out.Items.reserve(8); // skips the smallest regrowth steps
    while (true) {
      skipWs();
      // Out stays put while its children are parsed (only Out's own loop
      // appends to Out.Items), so the slot reference is stable.
      if (!parseValue(Out.Items.emplace_back(), Depth + 1))
        return false;
      skipWs();
      if (atEnd())
        return fail("unterminated array");
      char C = Text[Pos];
      if (C == ',') {
        ++Pos;
        continue;
      }
      if (C == ']') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parseObject(JsonValue &Out, size_t Depth) {
    ++Pos; // '{'
    Out.K = JsonValue::Kind::Object;
    skipWs();
    if (!atEnd() && peek() == '}') {
      ++Pos;
      return true;
    }
    Out.Members.reserve(2); // interval arguments have one or two members
    while (true) {
      skipWs();
      if (atEnd() || peek() != '"')
        return fail("expected object key");
      JsonMember &M = Out.Members.emplace_back();
      if (!parseString(M.Key))
        return false;
      skipWs();
      if (atEnd() || peek() != ':')
        return fail("expected ':'");
      ++Pos;
      skipWs();
      if (!parseValue(M.Value, Depth + 1))
        return false;
      skipWs();
      if (atEnd())
        return fail("unterminated object");
      char C = Text[Pos];
      if (C == ',') {
        ++Pos;
        continue;
      }
      if (C == '}') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
};

} // namespace detail
} // namespace server
} // namespace igen

JsonParseResult igen::server::parseJson(std::string_view Text,
                                        const JsonLimits &Limits) {
  return detail::JsonParser(Text, Limits).run();
}

std::string igen::server::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(char(C));
      }
    }
  }
  return Out;
}

//===- JsonTest.cpp - Serve-frame JSON parser tests ---------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/Json.h"

#include "interval/Rounding.h"
#include "support/JsonWriter.h"

#include <gtest/gtest.h>

#include <cfenv>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

using namespace igen;
using namespace igen::server;

namespace {

JsonValue parseOk(std::string_view Text) {
  JsonParseResult R = parseJson(Text);
  EXPECT_TRUE(R.Ok) << Text << " -> " << R.Error;
  return R.Value;
}

std::string parseErr(std::string_view Text) {
  JsonParseResult R = parseJson(Text);
  EXPECT_FALSE(R.Ok) << Text;
  return R.Error;
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_TRUE(parseOk("true").boolValue());
  EXPECT_FALSE(parseOk("false").boolValue());
  EXPECT_DOUBLE_EQ(parseOk("3.25").numberValue(), 3.25);
  EXPECT_DOUBLE_EQ(parseOk("-1e-3").numberValue(), -1e-3);
  EXPECT_EQ(parseOk("\"hi\\n\"").stringValue(), "hi\n");
}

TEST(JsonParse, NumbersKeepRawSpelling) {
  // 0.1 is not representable; callers that want directed rounding need
  // the original text.
  EXPECT_EQ(parseOk("0.1000000000000000001").stringValue(),
            "0.1000000000000000001");
}

TEST(JsonParse, NestedStructure) {
  JsonValue V = parseOk(
      "{\"op\":\"eval\",\"args\":[1,{\"lo\":-2,\"hi\":2}],\"n\":3}");
  ASSERT_TRUE(V.isObject());
  EXPECT_EQ(V.member("op")->stringValue(), "eval");
  const JsonValue *Args = V.member("args");
  ASSERT_TRUE(Args && Args->isArray());
  ASSERT_EQ(Args->arrayValue().size(), 2u);
  EXPECT_DOUBLE_EQ(Args->arrayValue()[1].member("lo")->numberValue(), -2.0);
  EXPECT_EQ(V.member("missing"), nullptr);
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(parseOk("\"\\u0041\"").stringValue(), "A");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parseOk("\"\\uD83D\\uDE00\"").stringValue(), "\xF0\x9F\x98\x80");
  parseErr("\"\\uD83D\""); // unpaired surrogate
}

TEST(JsonParse, StrictGrammar) {
  parseErr("");
  parseErr("{");
  parseErr("[1,]");
  parseErr("{\"a\":1,}");
  parseErr("{'a':1}");
  parseErr("{\"a\":1} garbage");
  parseErr("nul");
  parseErr("01");
  parseErr("+1");
  parseErr("1.");
  parseErr("\"unterminated");
  parseErr("{\"a\" 1}");
  parseErr("// comment\n1");
}

TEST(JsonParse, ErrorsCarryOffsets) {
  JsonParseResult R = parseJson("{\"a\": }");
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrorOffset, 6u);
}

TEST(JsonParse, DepthLimitBoundsHostileFrames) {
  std::string Deep(1000, '[');
  Deep += std::string(1000, ']');
  JsonParseResult R = parseJson(Deep);
  EXPECT_FALSE(R.Ok);

  JsonLimits Loose;
  Loose.MaxDepth = 2000;
  EXPECT_TRUE(parseJson(Deep, Loose).Ok);
}

TEST(JsonParse, ElementCountLimit) {
  std::string Wide = "[0";
  for (int I = 0; I < 200; ++I)
    Wide += ",0";
  Wide += "]";
  JsonLimits Tight;
  Tight.MaxElements = 100;
  EXPECT_FALSE(parseJson(Wide, Tight).Ok);
  EXPECT_TRUE(parseJson(Wide).Ok);
}

TEST(JsonParse, DuplicateKeysLastWins) {
  JsonValue V = parseOk("{\"a\":1,\"a\":2}");
  EXPECT_DOUBLE_EQ(V.member("a")->numberValue(), 2.0);
}

TEST(JsonParse, StringLimitReportsSameOffset) {
  JsonLimits Tight;
  Tight.MaxStringBytes = 4;
  JsonParseResult R = parseJson("\"abcdefgh\"", Tight);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "string too long");
  EXPECT_EQ(R.ErrorOffset, 6u); // after the fifth byte, as byte-at-a-time
  EXPECT_TRUE(parseJson("\"abcd\"", Tight).Ok);
  // A run of plain bytes still stops at a control character.
  R = parseJson("\"ab\x01\"");
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrorOffset, 3u);
}

uint64_t bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof(B));
  return B;
}

double doubleOf(uint64_t B) {
  double D;
  std::memcpy(&D, &B, sizeof(D));
  return D;
}

double parseNumber(const std::string &Text) {
  JsonParseResult R = parseJson(Text);
  EXPECT_TRUE(R.Ok && R.Value.isNumber()) << Text;
  return R.Value.numberValue();
}

TEST(JsonParse, EdgeNumberSpellings) {
  EXPECT_EQ(bitsOf(parseNumber("-0")), bitsOf(-0.0));
  EXPECT_EQ(bitsOf(parseNumber("0")), bitsOf(0.0));
  EXPECT_EQ(parseNumber("5e-324"), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(parseNumber("1e309"), HUGE_VAL); // overflow reads as +-inf
  EXPECT_EQ(parseNumber("-1e309"), -HUGE_VAL);
  EXPECT_EQ(parseNumber("1e-400"), 0.0); // underflow reads as zero
  EXPECT_EQ(parseNumber("1.7976931348623157e308"), DBL_MAX);
  EXPECT_EQ(parseNumber("1234567890123456789012345"),
            1234567890123456789012345.0);
  EXPECT_EQ(parseNumber("0.1000000000000000000000001"), 0.1);
  EXPECT_EQ(parseJson("1e309").Value.stringValue(), "1e309");
}

/// Seeded decimal spellings whose conversion is inexact, so a directed
/// rounding mode could move the result: short spellings (1-15 digits,
/// small exponents: the range a converter may finish with one hardware
/// multiply or divide), 17-significant-digit round trips of random
/// doubles, and 25-digit mantissas.
std::vector<std::string> inexactSpellings() {
  std::mt19937_64 Rng(20211);
  std::vector<std::string> Out;
  char Buf[64];
  std::uniform_real_distribution<double> Mag(-12.0, 12.0);
  for (int I = 0; I < 20000; ++I) {
    double D = std::pow(10.0, Mag(Rng)) * ((Rng() & 1) ? -1 : 1);
    std::snprintf(Buf, sizeof(Buf), "%.*g", int(1 + Rng() % 15), D);
    Out.push_back(Buf);
  }
  for (int I = 0; I < 20000; ++I) {
    double D;
    do
      D = doubleOf(Rng());
    while (!std::isfinite(D));
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    Out.push_back(Buf);
  }
  for (int I = 0; I < 5000; ++I) {
    std::string S = (Rng() & 1) ? "-" : "";
    S += char('1' + Rng() % 9);
    S += '.';
    for (int K = 0; K < 24; ++K)
      S += char('0' + Rng() % 10);
    S += "e" + std::to_string(int(Rng() % 600) - 300);
    Out.push_back(S);
  }
  return Out;
}

std::vector<uint64_t> parseAllUnder(int Mode,
                                    const std::vector<std::string> &Texts) {
  std::fesetround(Mode);
  invalidateRoundingCache();
  std::vector<uint64_t> Bits;
  for (const std::string &T : Texts)
    Bits.push_back(bitsOf(parseNumber(T)));
  std::fesetround(FE_TONEAREST);
  invalidateRoundingCache();
  return Bits;
}

TEST(JsonParse, NumbersIgnoreTheThreadRoundingMode) {
  std::vector<std::string> Texts = inexactSpellings();
  std::vector<uint64_t> Nearest = parseAllUnder(FE_TONEAREST, Texts);
  for (int Mode : {FE_UPWARD, FE_DOWNWARD, FE_TOWARDZERO}) {
    std::vector<uint64_t> Directed = parseAllUnder(Mode, Texts);
    size_t Diff = 0;
    for (size_t I = 0; I < Texts.size(); ++I)
      if (Directed[I] != Nearest[I] && Diff++ < 5)
        ADD_FAILURE() << "mode " << Mode << " changed " << Texts[I];
    EXPECT_EQ(Diff, 0u) << "mode " << Mode;
  }
  // And nearest means correctly rounded: the strtod reference.
  for (size_t I = 0; I < Texts.size(); ++I)
    ASSERT_EQ(Nearest[I], bitsOf(std::strtod(Texts[I].c_str(), nullptr)))
        << Texts[I];
}

/// Seeded doubles across the whole range plus the edge cases.
std::vector<double> roundTripDoubles() {
  std::vector<double> Out = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             DBL_MIN,
                             std::nextafter(DBL_MIN, 0.0), // largest subnormal
                             DBL_MAX,
                             -DBL_MAX,
                             0.1,
                             1.0 / 3.0,
                             1e21,
                             1e-7,
                             123456789012345680.0};
  std::mt19937_64 Rng(8259);
  for (int I = 0; I < 20000; ++I) {
    double D = doubleOf(Rng());
    if (std::isfinite(D))
      Out.push_back(D);
  }
  return Out;
}

std::string writeArray(const std::vector<double> &Ds) {
  JsonWriter W(JsonWriter::Style::Compact);
  W.beginArray();
  for (double D : Ds)
    W.value(D);
  W.endArray();
  return W.take();
}

TEST(JsonWriterNumbers, ShortestSpellingRoundTripsBitIdentically) {
  std::vector<double> Ds = roundTripDoubles();
  JsonParseResult R = parseJson(writeArray(Ds));
  ASSERT_TRUE(R.Ok) << R.Error;
  const JsonArray &A = R.Value.arrayValue();
  ASSERT_EQ(A.size(), Ds.size());
  for (size_t I = 0; I < Ds.size(); ++I)
    ASSERT_EQ(bitsOf(A[I].numberValue()), bitsOf(Ds[I]))
        << A[I].stringValue();
  EXPECT_EQ(writeArray({0.1, -0.0, 5e-324, 100.0}), "[0.1,-0,5e-324,100]");
}

TEST(JsonWriterNumbers, OutputIgnoresTheThreadRoundingMode) {
  std::vector<double> Ds = roundTripDoubles();
  std::string Nearest = writeArray(Ds);
  std::fesetround(FE_UPWARD);
  invalidateRoundingCache();
  std::string Upward = writeArray(Ds);
  std::fesetround(FE_TONEAREST);
  invalidateRoundingCache();
  EXPECT_TRUE(Upward == Nearest);
}

/// One document with every value type the writer emits, nested.
std::string everyValueType(JsonWriter::Style S) {
  JsonWriter W(S);
  W.beginObject();
  W.field("schema_version", 1);
  W.field("text", "quote \" backslash \\ newline \n tab \t ctl \x01");
  W.field("yes", true);
  W.field("no", false);
  W.field("pi", 3.141592653589793);
  W.field("neg", (int64_t)-42);
  W.field("big", (uint64_t)18446744073709551615u);
  W.field("count", 7u);
  W.field("inf", HUGE_VAL);
  W.field("nan", std::nan(""));
  W.key("empty_object");
  W.beginObject();
  W.endObject();
  W.key("empty_array");
  W.beginArray();
  W.endArray();
  W.key("rows");
  W.beginArray();
  for (int I = 0; I < 3; ++I) {
    W.beginObject();
    W.field("i", I);
    W.key("xs");
    W.beginArray();
    W.value(0.5 * I);
    W.value("s");
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

TEST(JsonWriterStyle, CompactIsPrettyWithoutNewlinesAndIndent) {
  std::string Pretty = everyValueType(JsonWriter::Style::Pretty);
  std::string Flat;
  for (size_t I = 0; I < Pretty.size(); ++I) {
    if (Pretty[I] != '\n') {
      Flat += Pretty[I];
      continue;
    }
    while (I + 1 < Pretty.size() && Pretty[I + 1] == ' ')
      ++I;
  }
  std::string Compact = everyValueType(JsonWriter::Style::Compact);
  EXPECT_EQ(Compact, Flat);
  EXPECT_EQ(Compact.find('\n'), std::string::npos);
  EXPECT_NE(Compact.find("\"pi\": 3.141592653589793,"), std::string::npos);
  EXPECT_TRUE(parseJson(Compact).Ok);
  EXPECT_EQ(Pretty.back(), '\n'); // pretty files end with a newline
}

TEST(JsonEscape, RoundTripsThroughParser) {
  std::string Nasty = "a\"b\\c\nd\te\x01f";
  std::string Quoted = "\"" + jsonEscape(Nasty) + "\"";
  EXPECT_EQ(parseOk(Quoted).stringValue(), Nasty);
}

} // namespace

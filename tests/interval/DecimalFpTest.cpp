//===- DecimalFpTest.cpp - Decimal-literal enclosure tests -------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "interval/DecimalFp.h"

#include "TestHelpers.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

using namespace igen;
using igen::test::Rng;

namespace {

class DecimalTest : public ::testing::Test {
protected:
  RoundUpwardScope Up;

  /// Quad value of the decimal string, built independently of the code
  /// under test (digits + quad powers of ten; quad has 113 bits, enough
  /// to check ~2^-100-tight enclosures with margin).
  static __float128 quadOf(const std::string &S) {
    size_t Pos = 0;
    bool Neg = false;
    if (S[Pos] == '+' || S[Pos] == '-')
      Neg = S[Pos++] == '-';
    __float128 V = 0;
    int Exp = 0;
    bool Dot = false;
    for (; Pos < S.size(); ++Pos) {
      char C = S[Pos];
      if (C == '.') {
        Dot = true;
        continue;
      }
      if (C == 'e' || C == 'E') {
        Exp += std::atoi(S.c_str() + Pos + 1);
        break;
      }
      if (C < '0' || C > '9')
        break;
      V = V * 10 + (C - '0');
      if (Dot)
        --Exp;
    }
    __float128 P = 1;
    for (int K = 0; K < (Exp < 0 ? -Exp : Exp); ++K)
      P *= 10;
    V = Exp < 0 ? V / P : V * P;
    return Neg ? -V : V;
  }

  static bool containsQ(const DdInterval &I, __float128 V) {
    __float128 Lo = -((__float128)I.NegLo.H + I.NegLo.L);
    __float128 Hi = (__float128)I.Hi.H + I.Hi.L;
    return Lo <= V && V <= Hi;
  }
};

} // namespace

TEST_F(DecimalTest, PowersOfTen) {
  for (int N : {-300, -30, -3, -1, 0, 1, 3, 22, 30, 300}) {
    DdInterval P = pow10Interval(N);
    __float128 Ref = 1;
    for (int K = 0; K < (N < 0 ? -N : N); ++K)
      Ref *= 10;
    if (N < 0)
      Ref = 1 / Ref;
    EXPECT_TRUE(containsQ(P, Ref)) << N;
    // Tight to ~2^-90 relative, up to the absolute widening floor at the
    // bottom of double-double's range.
    double W = (P.Hi.H + P.NegLo.H) + (P.Hi.L + P.NegLo.L);
    EXPECT_LE(W, std::fabs(P.Hi.H) * 0x1p-90 + 0x1p-1055) << N;
  }
}

TEST_F(DecimalTest, ExactValuesEncloseTightly) {
  // Exactly representable decimals: enclosure contains the value and is
  // no wider than ~2^-90 relative (the pow10 margins).
  for (const char *S : {"1", "2", "0.5", "0.25", "1024", "4.75",
                        "123456789", "0.125", "3", "10", "1e3"}) {
    DdInterval I = ddIntervalFromDecimal(S);
    double V = std::strtod(S, nullptr);
    EXPECT_TRUE(I.contains(V)) << S;
    double W = (I.Hi.H + I.NegLo.H) + (I.Hi.L + I.NegLo.L);
    EXPECT_LE(W, std::fabs(V) * 0x1p-88 + 1e-300) << S;
  }
}

TEST_F(DecimalTest, InexactDecimalsContainTrueValue) {
  for (const char *S :
       {"0.1", "0.2", "0.3", "3.14159265358979323846", "1.05",
        "2.718281828459045", "-0.1", "6.02e23", "1.6e-19",
        "0.000123456", "9.999999999999999999"}) {
    DdInterval I = ddIntervalFromDecimal(S);
    EXPECT_TRUE(containsQ(I, quadOf(S))) << S;
    // Much tighter than a double enclosure: the double value of the
    // literal must be interior or on the edge, and the width far below a
    // double ulp.
    double V = std::strtod(S, nullptr);
    double W = (I.Hi.H + I.NegLo.H) + (I.Hi.L + I.NegLo.L);
    EXPECT_LE(W, ulpOf(V) * 0x1p-30) << S;
  }
}

TEST_F(DecimalTest, RandomRoundTripAgainstStrtod) {
  Rng R(7);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    char Buf[64];
    double V = std::ldexp(R.uniform(-1.0, 1.0), R.intIn(-200, 200));
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    DdInterval I = ddIntervalFromDecimal(Buf);
    // %.17g round-trips: the double V is the decimal's nearest double,
    // so it lies within half a ulp of the true decimal value, and the
    // dd enclosure must contain the true value (checked via quadOf).
    EXPECT_TRUE(containsQ(I, quadOf(Buf))) << Buf;
    Interval H = intervalFromDecimal(Buf);
    EXPECT_TRUE(H.contains(V)) << Buf;
  }
}

TEST_F(DecimalTest, ExponentForms) {
  EXPECT_TRUE(ddIntervalFromDecimal("1.5e2").contains(150.0));
  EXPECT_TRUE(ddIntervalFromDecimal("1.5E+2").contains(150.0));
  EXPECT_TRUE(ddIntervalFromDecimal("15e-1").contains(1.5));
  EXPECT_TRUE(ddIntervalFromDecimal("-2.5e0").contains(-2.5));
}

TEST_F(DecimalTest, SuffixesTolerated) {
  EXPECT_TRUE(ddIntervalFromDecimal("0.5f").contains(0.5));
  EXPECT_TRUE(ddIntervalFromDecimal("0.25t").contains(0.25));
}

TEST_F(DecimalTest, ZeroAndSigns) {
  EXPECT_TRUE(ddIntervalFromDecimal("0").contains(0.0));
  EXPECT_TRUE(ddIntervalFromDecimal("0.000").contains(0.0));
  EXPECT_TRUE(ddIntervalFromDecimal("-0.0").contains(0.0));
  DdInterval Z = ddIntervalFromDecimal("0");
  EXPECT_FALSE(Z.contains(1e-300));
}

TEST_F(DecimalTest, MalformedRejected) {
  EXPECT_TRUE(ddIntervalFromDecimal("").hasNaN());
  EXPECT_TRUE(ddIntervalFromDecimal("abc").hasNaN());
  EXPECT_TRUE(ddIntervalFromDecimal("1.2.3").hasNaN());
  EXPECT_TRUE(ddIntervalFromDecimal("1e").hasNaN());
  EXPECT_TRUE(ddIntervalFromDecimal("--1").hasNaN());
}

TEST_F(DecimalTest, HugeAndTinyExponentsSaturateSoundly) {
  DdInterval Huge = ddIntervalFromDecimal("1e400");
  EXPECT_TRUE(Huge.Hi.isInf() || Huge.hasNaN()); // saturates upward
  EXPECT_TRUE(containsQ(Huge, quadOf("1e400")));
  DdInterval Tiny = ddIntervalFromDecimal("1e-400");
  EXPECT_TRUE(containsQ(Tiny, quadOf("1e-400")));
  EXPECT_GE(Tiny.Hi.H, 0.0);
  EXPECT_LE(-Tiny.NegLo.H, 1e-300); // lower bound below the tiny value
}

TEST_F(DecimalTest, LongDigitStrings) {
  // > 15 digits exercises the multi-chunk path.
  const char *S = "1.2345678901234567890123456789012345";
  DdInterval I = ddIntervalFromDecimal(S);
  EXPECT_TRUE(containsQ(I, quadOf(S)));
  double W = (I.Hi.H + I.NegLo.H) + (I.Hi.L + I.NegLo.L);
  EXPECT_LE(W, 0x1p-85);
}

TEST_F(DecimalTest, ConcurrentEnclosuresMatchSerial) {
  // Compile workers convert decimal constants concurrently; each thread
  // must get the same bits a serial conversion gets.
  std::vector<std::string> Lits;
  for (int E = -320; E <= 320; E += 7)
    Lits.push_back("3.14159265358979323846e" + std::to_string(E));
  auto enclose = [&] {
    RoundUpwardScope ThreadUp; // the rounding mode is per thread
    std::vector<DdInterval> Out;
    for (int Rep = 0; Rep < 20; ++Rep)
      for (const std::string &L : Lits)
        Out.push_back(ddIntervalFromDecimal(L));
    return Out;
  };
  // Threads first, so a shared cache would be filled concurrently.
  std::vector<std::vector<DdInterval>> Results(8);
  std::vector<std::thread> Workers;
  for (auto &R : Results)
    Workers.emplace_back([&R, &enclose] { R = enclose(); });
  for (std::thread &W : Workers)
    W.join();
  const std::vector<DdInterval> Serial = enclose();
  for (const auto &R : Results) {
    ASSERT_EQ(R.size(), Serial.size());
    for (size_t I = 0; I < R.size(); ++I)
      EXPECT_EQ(std::memcmp(&R[I], &Serial[I], sizeof(DdInterval)), 0)
          << Lits[I % Lits.size()];
  }
}

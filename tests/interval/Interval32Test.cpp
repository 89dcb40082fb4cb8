//===- Interval32Test.cpp - Single-precision interval tests -----------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "interval/Interval32.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace igen;
using igen::test::Rng;

namespace {

class I32Test : public ::testing::Test {
protected:
  RoundUpwardScope Up;
  Rng R{81};
};

} // namespace

TEST_F(I32Test, Construction) {
  Interval32 I = Interval32::fromEndpoints(-1.5f, 2.5f);
  EXPECT_EQ(I.lo(), -1.5f);
  EXPECT_EQ(I.hi(), 2.5f);
  EXPECT_TRUE(I.contains(0.0f));
  EXPECT_FALSE(I.contains(3.0f));
}

TEST_F(I32Test, AddRoundsOutward) {
  Interval32 A = Interval32::fromPoint(0.1f);
  Interval32 B = Interval32::fromPoint(0.2f);
  Interval32 S = iAdd(A, B);
  float Exact = 0.1f;
  (void)Exact;
  // 0.1f + 0.2f is inexact in float: enclosure of width 1 float-ulp.
  EXPECT_LT(S.lo(), S.hi());
  double Lo = S.lo(), Hi = S.hi();
  double Ref = static_cast<double>(0.1f) + static_cast<double>(0.2f);
  EXPECT_LE(Lo, Ref);
  EXPECT_GE(Hi, Ref);
}

TEST_F(I32Test, MulViaDoubleIsSoundAndTight) {
  for (int I = 0; I < 5000; ++I) {
    float A = static_cast<float>(R.uniform(-100.0, 100.0));
    float B = static_cast<float>(R.uniform(-100.0, 100.0));
    Interval32 P = iMul(Interval32::fromPoint(A), Interval32::fromPoint(B));
    double Exact = static_cast<double>(A) * static_cast<double>(B);
    EXPECT_LE(static_cast<double>(P.lo()), Exact);
    EXPECT_GE(static_cast<double>(P.hi()), Exact);
  }
}

TEST_F(I32Test, DivAndSqrt) {
  Interval32 Q = iDiv(Interval32::fromPoint(1.0f),
                      Interval32::fromPoint(3.0f));
  EXPECT_LT(Q.lo(), Q.hi());
  EXPECT_LE(static_cast<double>(Q.lo()), 1.0 / 3.0);
  EXPECT_GE(static_cast<double>(Q.hi()), 1.0 / 3.0);
  Interval32 S = iSqrt(Interval32::fromEndpoints(4.0f, 9.0f));
  EXPECT_EQ(S.lo(), 2.0f);
  EXPECT_EQ(S.hi(), 3.0f);
}

TEST_F(I32Test, WidenNarrowRoundTrip) {
  Interval32 I = Interval32::fromEndpoints(-1.25f, 7.75f);
  Interval W = I.widen();
  EXPECT_EQ(W.lo(), -1.25);
  EXPECT_EQ(W.hi(), 7.75);
  Interval32 N = Interval32::fromInterval(W);
  EXPECT_EQ(N.lo(), I.lo());
  EXPECT_EQ(N.hi(), I.hi());
}

TEST_F(I32Test, NarrowingRoundsOutward) {
  // A double interval not representable in float must widen outward.
  Interval W = Interval::fromEndpoints(0.1, 0.1);
  Interval32 N = Interval32::fromInterval(W);
  EXPECT_LE(static_cast<double>(N.lo()), 0.1);
  EXPECT_GE(static_cast<double>(N.hi()), 0.1);
  EXPECT_LT(N.lo(), N.hi());
}

/// The double -> float -> double round trip of ia_f32cast_f64 and the
/// serve evaluator, compiled out of line as they are.
[[gnu::noinline]] static Interval narrowThenWiden(const Interval &X) {
  return Interval32::fromInterval(X).widen();
}

TEST_F(I32Test, NarrowThenWidenStaysOnTheFloatGrid) {
  // The optimizer must not fold the round trip away.
  Interval W = narrowThenWiden(Interval::fromEndpoints(-7.4, -5.3));
  EXPECT_EQ(W.lo(), -7.400000095367432);
  EXPECT_EQ(W.hi(), -5.299999713897705);
}

TEST_F(I32Test, Comparisons) {
  EXPECT_EQ(iCmpLT(Interval32::fromEndpoints(0, 1),
                   Interval32::fromEndpoints(2, 3)),
            TBool::True);
  EXPECT_EQ(iCmpGT(Interval32::fromEndpoints(0, 3),
                   Interval32::fromEndpoints(2, 4)),
            TBool::Unknown);
}

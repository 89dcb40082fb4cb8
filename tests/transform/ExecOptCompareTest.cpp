//===- ExecOptCompareTest.cpp - -O vs -O0 enclosure comparison ---------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Inputs/optk.c is compiled by the igen driver twice -- at the default
// optimization level and at -O0 -- and both results are linked here (see
// OptkO1Tu.cpp / OptkO0Tu.cpp). For every kernel and many random inputs
// the optimized enclosure must be contained in (equal to or tighter
// than) the naive one, and both must contain the long double reference.
//
//===----------------------------------------------------------------------===//

#include "interval/igen_lib.h"

#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

f64i opt_horner_O1(f64i *coef, f64i x, int d);
f64i opt_horner_O0(f64i *coef, f64i x, int d);
f64i opt_pade_O1(f64i x);
f64i opt_pade_O0(f64i x);
f64i opt_henon_O1(f64i x, f64i y, int n);
f64i opt_henon_O0(f64i x, f64i y, int n);
f64i opt_invsq_O1(f64i x);
f64i opt_invsq_O0(f64i x);
f64i opt_negsq_O1(f64i x, f64i y);
f64i opt_negsq_O0(f64i x, f64i y);
f64i opt_cse_O1(f64i *v, f64i a, f64i b, int n);
f64i opt_cse_O0(f64i *v, f64i a, f64i b, int n);
f64i opt_elem_O1(f64i x);
f64i opt_elem_O0(f64i x);

namespace {

using igen::Interval;

Interval toI(f64i V) {
#if defined(IGEN_F64I_SCALAR)
  return V;
#else
  return V.toInterval();
#endif
}

bool containsLd(const Interval &I, long double V) {
  if (I.hasNaN())
    return true;
  return -static_cast<long double>(I.NegLo) <= V &&
         V <= static_cast<long double>(I.Hi);
}

/// Optimized vs naive: tightened-or-equal, and NaN states agree (a
/// rewrite may never turn a valid enclosure into NaN or vice versa).
void expectTightened(const Interval &O1, const Interval &O0) {
  EXPECT_EQ(O1.hasNaN(), O0.hasNaN());
  if (!O0.hasNaN()) {
    EXPECT_TRUE(O0.containsInterval(O1))
        << "O1=[" << O1.lo() << "," << O1.hi() << "] O0=[" << O0.lo()
        << "," << O0.hi() << "]";
  }
}

class ExecOptTest : public ::testing::Test {
protected:
  igen::RoundUpwardScope Up;
  std::mt19937_64 Gen{2026};
  double uniform(double Lo, double Hi) {
    return std::uniform_real_distribution<double>(Lo, Hi)(Gen);
  }
};

} // namespace

TEST_F(ExecOptTest, HornerTightenedAndSound) {
  for (int It = 0; It < 500; ++It) {
    int D = 1 + static_cast<int>(uniform(1.0, 12.0));
    std::vector<f64i> Coef;
    std::vector<long double> CoefLd;
    for (int K = 0; K <= D; ++K) {
      double C = uniform(-2.0, 2.0);
      Coef.push_back(f64i::fromPoint(C));
      CoefLd.push_back(C);
    }
    double X = uniform(0.001, 3.0);
    Interval R1 = toI(opt_horner_O1(Coef.data(), f64i::fromPoint(X), D));
    Interval R0 = toI(opt_horner_O0(Coef.data(), f64i::fromPoint(X), D));
    expectTightened(R1, R0);
    long double Ref = CoefLd[D];
    for (int K = D - 1; K >= 0; --K)
      Ref = Ref * static_cast<long double>(X) + CoefLd[K];
    EXPECT_TRUE(containsLd(R1, Ref)) << X;
    EXPECT_TRUE(containsLd(R0, Ref)) << X;
  }
}

TEST_F(ExecOptTest, PadeTightenedAndSound) {
  for (int It = 0; It < 3000; ++It) {
    double X = uniform(0.0, 50.0);
    Interval R1 = toI(opt_pade_O1(f64i::fromPoint(X)));
    Interval R0 = toI(opt_pade_O0(f64i::fromPoint(X)));
    expectTightened(R1, R0);
    long double L = X;
    long double Ref =
        X > 0.0 ? (0.125L + L * (2.0L + L)) / (2.0L + L * (0.5L + L)) : 0.0L;
    EXPECT_TRUE(containsLd(R1, Ref)) << X;
  }
}

TEST_F(ExecOptTest, HenonTightenedAndSound) {
  for (int It = 0; It < 300; ++It) {
    double X = uniform(-0.5, 0.5), Y = uniform(-0.5, 0.5);
    int N = 1 + static_cast<int>(uniform(0.0, 12.0));
    Interval R1 = toI(opt_henon_O1(f64i::fromPoint(X), f64i::fromPoint(Y), N));
    Interval R0 = toI(opt_henon_O0(f64i::fromPoint(X), f64i::fromPoint(Y), N));
    expectTightened(R1, R0);
    long double Lx = X, Ly = Y;
    for (int I = 0; I < N; ++I) {
      long double Nx = 1.0L - 1.05L * Lx * Lx + Ly;
      Ly = 0.3L * Lx;
      Lx = Nx;
    }
    EXPECT_TRUE(containsLd(R1, Lx)) << X << " " << Y;
    EXPECT_TRUE(containsLd(R0, Lx)) << X << " " << Y;
  }
}

TEST_F(ExecOptTest, InvsqAndNegsqTightened) {
  for (int It = 0; It < 3000; ++It) {
    double X = uniform(1.0 + 1e-9, 100.0);
    expectTightened(toI(opt_invsq_O1(f64i::fromPoint(X))),
                    toI(opt_invsq_O0(f64i::fromPoint(X))));
    double Xn = uniform(-10.0, -0.001);
    double Yn = Xn - uniform(0.001, 10.0);
    expectTightened(
        toI(opt_negsq_O1(f64i::fromPoint(Xn), f64i::fromPoint(Yn))),
        toI(opt_negsq_O0(f64i::fromPoint(Xn), f64i::fromPoint(Yn))));
  }
}

TEST_F(ExecOptTest, CseTightenedAndSound) {
  for (int It = 0; It < 200; ++It) {
    int N = 1 + static_cast<int>(uniform(0.0, 40.0));
    std::vector<f64i> V;
    std::vector<long double> Vl;
    for (int I = 0; I < N; ++I) {
      double E = uniform(-1.0, 1.0);
      V.push_back(f64i::fromPoint(E));
      Vl.push_back(E);
    }
    double A = uniform(-2.0, 2.0), B = uniform(-2.0, 2.0);
    Interval R1 = toI(
        opt_cse_O1(V.data(), f64i::fromPoint(A), f64i::fromPoint(B), N));
    Interval R0 = toI(
        opt_cse_O0(V.data(), f64i::fromPoint(A), f64i::fromPoint(B), N));
    expectTightened(R1, R0);
    long double T = static_cast<long double>(A) * B + 1.0L;
    long double Ref = 0.0L;
    for (int I = 0; I < N; ++I)
      Ref = Ref + T * Vl[I] + T;
    EXPECT_TRUE(containsLd(R1, Ref));
    EXPECT_TRUE(containsLd(R0, Ref));
  }
}

TEST_F(ExecOptTest, IntervalInputsStayTightened) {
  // Width > 0 exercises the non-degenerate corner selection in the
  // specialized variants.
  for (int It = 0; It < 3000; ++It) {
    double C = uniform(0.5, 20.0);
    double W = uniform(0.0, 0.1);
    f64i X = f64i::fromEndpoints(C - W, C + W);
    expectTightened(toI(opt_pade_O1(X)), toI(opt_pade_O0(X)));
    f64i X2 = f64i::fromEndpoints(1.0 + 1e-6, 1.0 + 1e-6 + W);
    expectTightened(toI(opt_invsq_O1(X2)), toI(opt_invsq_O0(X2)));
  }
}

TEST_F(ExecOptTest, ElemFastPathSoundWithBoundedExtraWidth) {
  // -O lowers exp/log/sin/cos to the certified polynomial fast path.
  // Its enclosure carries the statically certified 2^-48 relative margin
  // per call, which is a few ulps *wider* than the empirical 4-ulp libm
  // band of the -O0 path (the price of removing fesetround from the hot
  // path; DESIGN.md "Certified polynomial kernels"). So instead of
  // strict containment the exec comparison checks the guarantees that do
  // hold: both levels enclose the long double reference, the two
  // enclosures overlap, and the fast path's extra width stays within its
  // certified per-call budget (3 calls and an add: well under 2^-44
  // relative; a fast-path regression past its certificate fails here).
  for (int It = 0; It < 4000; ++It) {
    double X = uniform(0.0001, 100.0);
    Interval R1 = toI(opt_elem_O1(f64i::fromPoint(X)));
    Interval R0 = toI(opt_elem_O0(f64i::fromPoint(X)));
    long double Ref;
    {
      igen::RoundNearestScope Near;
      long double L = X;
      Ref = expl(0.5L * sinl(L)) + logl(2.0L + cosl(L));
    }
    EXPECT_TRUE(containsLd(R1, Ref)) << X;
    EXPECT_TRUE(containsLd(R0, Ref)) << X;
    EXPECT_TRUE(R1.lo() <= R0.hi() && R0.lo() <= R1.hi())
        << "disjoint enclosures at x=" << X;
    double W1 = R1.Hi + R1.NegLo; // hi - lo, exactly representable here
    double W0 = R0.Hi + R0.NegLo;
    EXPECT_LE(W1, W0 + std::fabs(R0.Hi) * 0x1p-44) << X;
  }
}

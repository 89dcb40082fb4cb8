//===- ExecServeCompareTest.cpp - Daemon eval vs AOT bit-identity -------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The dual-path soundness test: every kernel from the Table V suite is
// (a) compiled ahead-of-time by the igen driver at build time (-O0
// --target=ss, linked into this binary) and (b) compiled in memory and
// run through the serve-mode evaluator. For every sampled
// input the two paths must agree BIT-IDENTICALLY on both interval
// endpoints — the daemon's answers are the compiler's answers, not an
// approximation of them.
//
//===----------------------------------------------------------------------===//

#include "interval/igen_lib.h"
#include "server/Evaluator.h"
#include "support/StringExtras.h"
#include "transform/Pipeline.h"

#include <cstring>
#include <random>

#include <gtest/gtest.h>

// AOT entry points from the build-time-generated TUs (scalar interval
// library, so f64i is igen::Interval itself).
f64i poly(f64i x);
f64i henon(f64i x, f64i y, int n);
f64i dot(f64i *a, f64i *b, int n);
void axpy(f64i alpha, f64i *x, f64i *y, int n);
f64i absdiff(f64i a, f64i b);
f64i sensor_scale(double a);
f64i ratio(f64i a, f64i b);
f64i grow_until(f64i x, f64i limit);
f64i chain_assign(f64i a);
f64i pyth(f64i x);
f64i softplusish(f64i x);
f64i hypot2(f64i a, f64i b);
f64i jbranch(f64i a, f64i b);
f64i jclamp(f64i x);
f64i rk_minmax(f64i a, f64i b);
f64i rk_three(f64i x, f64i y);
f64i rk_tol(f64i x);
f64i rk_fmath(f64i a, f64i b);
f64i rk_narrow(f64i x);
// The eval-scalar benchmark kernels (ScalarkTu.cpp).
f64i wl_newton(f64i a, f64i x0, int n);
f64i wl_henon(f64i x0, f64i y0, int n, int m);
f64i wl_piece(f64i x, int n);
f64i wl_elem(f64i x, int n);
f64i wl_red(f64i x, f64i h, int n);
// Int/double mixes (mixk.c).
f64i mix_assign(f64i x, int n);
f64i mix_ret(f64i x, int n);
f64i mix_int_ret(int n);
f64i mix_cond(f64i x, int k);
f64i mix_int_update(int c);
f64i mix_casts(f64i x, int n);
f64i mix_logic(f64i x, int n);
int mix_tri(int n);
f64i mix_int_call(f64i x, int n);

namespace {

using namespace igen;
using namespace igen::server;

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

::testing::AssertionResult bitIdentical(const Interval &Aot,
                                        const Interval &Served) {
  if (sameBits(Aot.NegLo, Served.NegLo) && sameBits(Aot.Hi, Served.Hi))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "AOT [" << Aot.lo() << ", " << Aot.hi() << "] vs served ["
         << Served.lo() << ", " << Served.hi() << "]";
}

std::shared_ptr<const InMemoryProgram> compileInput(const char *File,
                                                    bool Reductions,
                                                    bool Join) {
  std::string Source;
  EXPECT_TRUE(readFile(std::string(IGEN_INPUTS_DIR) + "/" + File, Source));
  DiagnosticsEngine Diags;
  TransformOptions Opts;
  Opts.OptLevel = 0;
  Opts.ScalarLibrary = true;
  Opts.EnableReductions = Reductions;
  if (Join)
    Opts.Branches = TransformOptions::BranchPolicy::Join;
  auto P = compileToProgram(Source, Opts, Diags);
  EXPECT_TRUE(P) << Diags.render(File);
  return std::shared_ptr<const InMemoryProgram>(std::move(P));
}

class ServeCompare : public ::testing::Test {
protected:
  static std::shared_ptr<const InMemoryProgram> Kernels, Trig, Join, Rules,
      Scalar, Mix;

  static void SetUpTestSuite() {
    Kernels = compileInput("kernels.c", /*Reductions=*/true, /*Join=*/false);
    Trig = compileInput("trig.c", false, false);
    Join = compileInput("joink.c", false, /*Join=*/true);
    Rules = compileInput("rulesk.c", false, /*Join=*/true);
    Scalar = compileInput("scalark.c", /*Reductions=*/true, /*Join=*/true);
    Mix = compileInput("mixk.c", false, false);
  }
  static void TearDownTestSuite() {
    Kernels.reset();
    Trig.reset();
    Join.reset();
    Rules.reset();
    Scalar.reset();
    Mix.reset();
  }

  RoundUpwardScope Up;
  std::mt19937_64 Gen{2024};
  double uniform(double Lo, double Hi) {
    return std::uniform_real_distribution<double>(Lo, Hi)(Gen);
  }

  EvalArg scalarArg(const Interval &I) {
    EvalArg A;
    A.K = EvalArg::Kind::Scalar;
    A.Scalar = I;
    return A;
  }
  EvalArg intArg(long long V) {
    EvalArg A;
    A.K = EvalArg::Kind::Int;
    A.IntValue = V;
    return A;
  }

  Interval served(const InMemoryProgram &P, const std::string &Fn,
                  std::vector<EvalArg> Args) {
    EvalOptions EO;
    EO.JoinBranches =
        P.Opts.Branches == TransformOptions::BranchPolicy::Join;
    EO.EnableReductions = P.Opts.EnableReductions;
    EvalResult R = evalFunction(P, Fn, Args, EO);
    EXPECT_TRUE(R.Ok) << Fn << ": " << R.Error.Code << ": "
                      << R.Error.Message;
    EXPECT_TRUE(R.HasReturn) << Fn;
    return R.Return;
  }
};

std::shared_ptr<const InMemoryProgram> ServeCompare::Kernels;
std::shared_ptr<const InMemoryProgram> ServeCompare::Trig;
std::shared_ptr<const InMemoryProgram> ServeCompare::Join;
std::shared_ptr<const InMemoryProgram> ServeCompare::Rules;
std::shared_ptr<const InMemoryProgram> ServeCompare::Scalar;
std::shared_ptr<const InMemoryProgram> ServeCompare::Mix;

TEST_F(ServeCompare, PolyBitIdentical) {
  for (int I = 0; I < 500; ++I) {
    Interval X = Interval::fromPoint(uniform(-50.0, 50.0));
    EXPECT_TRUE(bitIdentical(::poly(X), served(*Kernels, "poly",
                                             {scalarArg(X)})));
  }
  // Wide inputs too: the evaluator must track interval (not point)
  // semantics through every operation.
  for (int I = 0; I < 200; ++I) {
    double Lo = uniform(-10.0, 10.0);
    Interval X = Interval::fromEndpoints(Lo, Lo + uniform(0.0, 5.0));
    EXPECT_TRUE(bitIdentical(::poly(X), served(*Kernels, "poly",
                                             {scalarArg(X)})));
  }
}

TEST_F(ServeCompare, HenonLoopBitIdentical) {
  for (int N : {0, 1, 3, 10, 37}) {
    Interval X = Interval::fromPoint(uniform(-0.5, 0.5));
    Interval Y = Interval::fromPoint(uniform(-0.5, 0.5));
    EXPECT_TRUE(bitIdentical(
        ::henon(X, Y, N),
        served(*Kernels, "henon",
               {scalarArg(X), scalarArg(Y), intArg(N)})))
        << N;
  }
}

TEST_F(ServeCompare, DotReductionBitIdentical) {
  for (int N : {1, 7, 100, 1000}) {
    std::vector<f64i> A(N), B(N);
    std::vector<Interval> EA(N), EB(N);
    for (int I = 0; I < N; ++I) {
      double X = uniform(-1.0, 1.0), Y = uniform(-1.0, 1.0);
      A[I] = f64i::fromPoint(X);
      B[I] = f64i::fromPoint(Y);
      EA[I] = A[I];
      EB[I] = B[I];
    }
    Interval Aot = ::dot(A.data(), B.data(), N);
    EvalArg ArgA, ArgB;
    ArgA.K = EvalArg::Kind::Array;
    ArgA.Elements = EA;
    ArgB.K = EvalArg::Kind::Array;
    ArgB.Elements = EB;
    EXPECT_TRUE(bitIdentical(
        Aot, served(*Kernels, "dot", {ArgA, ArgB, intArg(N)})))
        << N;
  }
}

TEST_F(ServeCompare, AxpyArrayOutputsBitIdentical) {
  const int N = 64;
  Interval Alpha = Interval::fromPoint(uniform(-2.0, 2.0));
  std::vector<f64i> X(N), Y(N);
  std::vector<Interval> EX(N), EY(N);
  for (int I = 0; I < N; ++I) {
    X[I] = f64i::fromPoint(uniform(-1.0, 1.0));
    Y[I] = f64i::fromPoint(uniform(-1.0, 1.0));
    EX[I] = X[I];
    EY[I] = Y[I];
  }
  ::axpy(Alpha, X.data(), Y.data(), N);

  EvalArg ArgX, ArgY;
  ArgX.K = EvalArg::Kind::Array;
  ArgX.Elements = EX;
  ArgY.K = EvalArg::Kind::Array;
  ArgY.Elements = EY;
  EvalOptions EO;
  EO.EnableReductions = true;
  EvalResult R = evalFunction(*Kernels, "axpy",
                              {scalarArg(Alpha), ArgX, ArgY, intArg(N)},
                              EO);
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  ASSERT_EQ(R.ArrayOutputs.size(), 2u);
  ASSERT_EQ(R.ArrayOutputs[1].size(), (size_t)N);
  for (int I = 0; I < N; ++I)
    EXPECT_TRUE(bitIdentical(Y[I], R.ArrayOutputs[1][I])) << I;
}

TEST_F(ServeCompare, AbsdiffAndChainAssignBitIdentical) {
  for (int I = 0; I < 300; ++I) {
    // absdiff branches on a < b; keep the comparison decided (both
    // paths abort on Unknown under the exception policy), alternating
    // which branch wins.
    Interval A = Interval::fromPoint(uniform(-5.0, 0.0));
    Interval B = Interval::fromPoint(uniform(1.0, 5.0));
    if (I % 2)
      std::swap(A, B);
    EXPECT_TRUE(bitIdentical(
        absdiff(A, B),
        served(*Kernels, "absdiff", {scalarArg(A), scalarArg(B)})));
    EXPECT_TRUE(bitIdentical(::chain_assign(A),
                             served(*Kernels, "chain_assign",
                                    {scalarArg(A)})));
  }
}

TEST_F(ServeCompare, IntAssignAndIntReturnBitIdentical) {
  // `int y; y = n * 3;` must not read y, and `return k;` in a double
  // function returns the point interval [k, k].
  for (int I = 0; I < 200; ++I) {
    Interval X =
        Interval::fromEndpoints(uniform(0.5, 1.0), uniform(1.5, 2.0));
    if (I % 2)
      X = Interval::fromPoint(-uniform(0.5, 2.0));
    const int N = static_cast<int>(uniform(-50.0, 50.0));
    EXPECT_TRUE(bitIdentical(mix_assign(X, N),
                             served(*Mix, "mix_assign",
                                    {scalarArg(X), intArg(N)})));
    EXPECT_TRUE(bitIdentical(
        mix_ret(X, N), served(*Mix, "mix_ret", {scalarArg(X), intArg(N)})));
  }
}

TEST_F(ServeCompare, ValueCategoryCornersBitIdentical) {
  // Ints returned from, mixed into and cast within double functions, an
  // int callee in a double expression, and int/TBool logic: every value
  // has its category at compile time on both paths.
  for (int I = 0; I < 200; ++I) {
    Interval X = Interval::fromPoint(uniform(-20.0, 20.0));
    if (I % 3 == 0)
      X = Interval::fromEndpoints(uniform(0.5, 1.0), uniform(1.5, 2.0));
    const int N = static_cast<int>(uniform(-50.0, 50.0));
    EXPECT_TRUE(bitIdentical(mix_int_ret(N),
                             served(*Mix, "mix_int_ret", {intArg(N)})));
    EXPECT_TRUE(bitIdentical(
        mix_cond(X, N), served(*Mix, "mix_cond", {scalarArg(X), intArg(N)})));
    EXPECT_TRUE(bitIdentical(mix_int_update(N),
                             served(*Mix, "mix_int_update", {intArg(N)})));
    EXPECT_TRUE(bitIdentical(mix_casts(X, N), served(*Mix, "mix_casts",
                                                     {scalarArg(X),
                                                      intArg(N)})));
    EXPECT_TRUE(bitIdentical(mix_logic(X, N), served(*Mix, "mix_logic",
                                                     {scalarArg(X),
                                                      intArg(N)})));
    EXPECT_TRUE(bitIdentical(mix_int_call(X, N),
                             served(*Mix, "mix_int_call",
                                    {scalarArg(X), intArg(N)})));
    EvalResult T = evalFunction(*Mix, "mix_tri", {intArg(N)}, {});
    ASSERT_TRUE(T.Ok && T.ReturnIsInt) << T.Error.Message;
    EXPECT_EQ(T.ReturnInt, mix_tri(N));
  }
}

TEST_F(ServeCompare, SensorScaleToleranceBitIdentical) {
  for (int I = 0; I < 200; ++I) {
    double A = uniform(-100.0, 100.0);
    EvalArg T;
    T.K = EvalArg::Kind::Tolerance;
    T.Point = A;
    EXPECT_TRUE(bitIdentical(::sensor_scale(A),
                             served(*Kernels, "sensor_scale", {T})))
        << A;
  }
}

TEST_F(ServeCompare, RatioIncludingDivByStraddlingZero) {
  for (int I = 0; I < 300; ++I) {
    Interval A = Interval::fromPoint(uniform(-10.0, 10.0));
    Interval B = I % 5 == 0
                     ? Interval::fromEndpoints(-1.0, 1.0) // straddles 0
                     : Interval::fromPoint(uniform(0.5, 10.0));
    EXPECT_TRUE(bitIdentical(
        ::ratio(A, B), served(*Kernels, "ratio",
                            {scalarArg(A), scalarArg(B)})));
  }
}

TEST_F(ServeCompare, GrowUntilWhileLoopBitIdentical) {
  // Point inputs keep the loop condition decided on both paths.
  for (double X0 : {0.25, 1.0, 3.5}) {
    Interval X = Interval::fromPoint(X0);
    Interval Limit = Interval::fromPoint(1000.0);
    EXPECT_TRUE(bitIdentical(
        ::grow_until(X, Limit),
        served(*Kernels, "grow_until", {scalarArg(X), scalarArg(Limit)})))
        << X0;
  }
}

TEST_F(ServeCompare, TrigKernelsBitIdentical) {
  for (int I = 0; I < 300; ++I) {
    Interval X = Interval::fromPoint(uniform(-3.0, 3.0));
    Interval A = Interval::fromPoint(uniform(-3.0, 3.0));
    Interval B = Interval::fromPoint(uniform(-3.0, 3.0));
    EXPECT_TRUE(bitIdentical(::pyth(X), served(*Trig, "pyth",
                                             {scalarArg(X)})));
    EXPECT_TRUE(bitIdentical(::softplusish(X),
                             served(*Trig, "softplusish",
                                    {scalarArg(X)})));
    EXPECT_TRUE(bitIdentical(::hypot2(A, B),
                             served(*Trig, "hypot2",
                                    {scalarArg(A), scalarArg(B)})));
  }
}

TEST_F(ServeCompare, JoinBranchKernelsBitIdentical) {
  for (int I = 0; I < 300; ++I) {
    // Straddling inputs exercise the join (hull) path on both sides.
    Interval A = Interval::fromEndpoints(uniform(-2.0, 0.0),
                                         uniform(0.0, 2.0));
    Interval B = Interval::fromPoint(uniform(-2.0, 2.0));
    Interval X = Interval::fromEndpoints(uniform(-2.0, 0.5),
                                         uniform(0.5, 2.0));
    EXPECT_TRUE(bitIdentical(::jbranch(A, B),
                             served(*Join, "jbranch",
                                    {scalarArg(A), scalarArg(B)})));
    EXPECT_TRUE(bitIdentical(::jclamp(X), served(*Join, "jclamp",
                                               {scalarArg(X)})));
  }
}

TEST_F(ServeCompare, MultiTargetJoinsBitIdentical) {
  for (int I = 0; I < 300; ++I) {
    // Straddling pairs take the join path; point pairs either branch.
    Interval A = I % 3 ? Interval::fromEndpoints(uniform(-2.0, 0.0),
                                                 uniform(0.0, 2.0))
                       : Interval::fromPoint(uniform(-2.0, 2.0));
    Interval B = Interval::fromPoint(uniform(-2.0, 2.0));
    EXPECT_TRUE(bitIdentical(::rk_minmax(A, B),
                             served(*Rules, "rk_minmax",
                                    {scalarArg(A), scalarArg(B)})));
    EXPECT_TRUE(bitIdentical(::rk_three(A, B),
                             served(*Rules, "rk_three",
                                    {scalarArg(A), scalarArg(B)})));
    EXPECT_TRUE(bitIdentical(::rk_three(B, A),
                             served(*Rules, "rk_three",
                                    {scalarArg(B), scalarArg(A)})));
  }
}

TEST_F(ServeCompare, ToleranceLiteralMathAndCastBitIdentical) {
  for (int I = 0; I < 300; ++I) {
    double Lo = uniform(-3.0, 3.0);
    Interval A = Interval::fromEndpoints(Lo, Lo + uniform(0.0, 1.0));
    Interval B = Interval::fromPoint(uniform(-3.0, 3.0));
    EXPECT_TRUE(bitIdentical(::rk_tol(A),
                             served(*Rules, "rk_tol", {scalarArg(A)})));
    EXPECT_TRUE(bitIdentical(::rk_fmath(A, B),
                             served(*Rules, "rk_fmath",
                                    {scalarArg(A), scalarArg(B)})));
    EXPECT_TRUE(bitIdentical(::rk_narrow(A),
                             served(*Rules, "rk_narrow", {scalarArg(A)})));
  }
}

TEST_F(ServeCompare, BenchmarkScalarKernelsBitIdentical) {
  // The eval-scalar workload's kernels at its loop lengths, on point and
  // interval inputs; piece's inputs straddle its branch so the join path
  // runs, red runs its loop under the reductions option.
  for (int I = 0; I < 40; ++I) {
    double A0 = uniform(1.0, 4.0);
    Interval A = Interval::fromEndpoints(A0, A0 * (1 + uniform(0, 1e-6)));
    Interval X0 = Interval::fromPoint(1.0);
    EXPECT_TRUE(bitIdentical(
        wl_newton(A, X0, 300),
        served(*Scalar, "newton", {scalarArg(A), scalarArg(X0), intArg(300)})));

    double H0 = uniform(-0.2, 0.2), H1 = uniform(-0.2, 0.2);
    Interval HX = Interval::fromEndpoints(H0, H0 + uniform(0, 1e-9));
    Interval HY = Interval::fromPoint(H1);
    EXPECT_TRUE(bitIdentical(
        wl_henon(HX, HY, 24, 24),
        served(*Scalar, "henon",
               {scalarArg(HX), scalarArg(HY), intArg(24), intArg(24)})));

    double P0 = uniform(0.2, 1.0);
    Interval PX = I % 2 ? Interval::fromPoint(P0)
                        : Interval::fromEndpoints(P0, P0 * 1.03);
    EXPECT_TRUE(bitIdentical(wl_piece(PX, 400),
                             served(*Scalar, "piece",
                                    {scalarArg(PX), intArg(400)})));

    double E0 = uniform(0.1, 2.0);
    Interval EX = Interval::fromEndpoints(E0, E0 * (1 + uniform(0, 1e-4)));
    EXPECT_TRUE(bitIdentical(wl_elem(EX, 150),
                             served(*Scalar, "elem",
                                    {scalarArg(EX), intArg(150)})));

    double R0 = uniform(0.1, 1.0);
    Interval RX = Interval::fromEndpoints(R0, R0 * (1 + uniform(0, 1e-4)));
    Interval RH = Interval::fromPoint(0.0009765625);
    EXPECT_TRUE(bitIdentical(
        wl_red(RX, RH, 1500),
        served(*Scalar, "red", {scalarArg(RX), scalarArg(RH), intArg(1500)})));
  }
}

TEST_F(ServeCompare, SimdKernelIsTypedUnsupportedNotWrong) {
  // vscale uses AVX intrinsics: the evaluator must refuse (typed error),
  // never silently return something that could disagree with AOT.
  EvalArg ArgX, ArgY;
  ArgX.K = EvalArg::Kind::Array;
  ArgX.Elements.assign(8, Interval::fromPoint(1.0));
  ArgY = ArgX;
  EvalResult R = evalFunction(*Kernels, "vscale",
                              {ArgX, ArgY, intArg(8)}, {});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "unsupported");
}

} // namespace

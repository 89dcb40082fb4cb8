//===- EvaluatorTest.cpp - Serve-mode interval evaluator tests ----------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/Evaluator.h"

#include "EvalGoldens.h"

#include "interval/Rounding.h"
#include "transform/Pipeline.h"

#include <cmath>
#include <gtest/gtest.h>

using namespace igen;
using namespace igen::server;

namespace {

std::shared_ptr<const InMemoryProgram>
compile(const char *Source, bool Join = false, bool Reductions = false) {
  DiagnosticsEngine Diags;
  TransformOptions Opts;
  Opts.OptLevel = 0;
  Opts.ScalarLibrary = true;
  Opts.EnableReductions = Reductions;
  if (Join)
    Opts.Branches = TransformOptions::BranchPolicy::Join;
  auto P = compileToProgram(Source, Opts, Diags);
  EXPECT_TRUE(P) << Diags.render("<test>");
  return std::shared_ptr<const InMemoryProgram>(std::move(P));
}

EvalResult eval(const InMemoryProgram &P, const std::string &Fn,
                std::vector<EvalArg> Args, EvalOptions EO = {}) {
  EO.JoinBranches =
      P.Opts.Branches == TransformOptions::BranchPolicy::Join;
  EO.EnableReductions = P.Opts.EnableReductions;
  RoundUpwardScope Up;
  return evalFunction(P, Fn, Args, EO);
}

EvalArg scalar(double Lo, double Hi) {
  EvalArg A;
  A.K = EvalArg::Kind::Scalar;
  A.Scalar = Interval::fromEndpoints(Lo, Hi);
  return A;
}
EvalArg point(double X) { return scalar(X, X); }
EvalArg intArg(long long V) {
  EvalArg A;
  A.K = EvalArg::Kind::Int;
  A.IntValue = V;
  return A;
}
EvalArg arr(std::vector<Interval> Elems) {
  EvalArg A;
  A.K = EvalArg::Kind::Array;
  A.Elements = std::move(Elems);
  return A;
}

TEST(Evaluator, StraightLineArithmetic) {
  auto P = compile("double f(double x) { return (x + 1.0) * x - 0.5; }");
  EvalResult R = eval(*P, "f", {point(2.0)});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  ASSERT_TRUE(R.HasReturn);
  EXPECT_DOUBLE_EQ(R.Return.lo(), 5.5);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 5.5);
}

TEST(Evaluator, IntervalArgumentsWiden) {
  auto P = compile("double f(double x) { return x * x; }");
  EvalResult R = eval(*P, "f", {scalar(-2.0, 3.0)});
  ASSERT_TRUE(R.Ok);
  // iMul of [-2,3]*[-2,3] (no square-awareness at -O0): [-6, 9].
  EXPECT_DOUBLE_EQ(R.Return.lo(), -6.0);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 9.0);
}

TEST(Evaluator, MathCallsMatchRuntimeMapping) {
  auto P = compile("double f(double x) { return sqrt(x) + fabs(x); }");
  EvalResult R = eval(*P, "f", {point(4.0)});
  ASSERT_TRUE(R.Ok);
  EXPECT_DOUBLE_EQ(R.Return.lo(), 6.0);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 6.0);

  auto Q = compile("double g(double x) { return exp(x); }");
  EvalResult R2 = eval(*Q, "g", {point(0.0)});
  ASSERT_TRUE(R2.Ok);
  EXPECT_LE(R2.Return.lo(), 1.0);
  EXPECT_GE(R2.Return.hi(), 1.0);
}

TEST(Evaluator, LoopsAndIntArithmetic) {
  auto P = compile("double f(double x, int n) {\n"
                   "  double acc = 0.0;\n"
                   "  for (int i = 0; i < n; ++i) acc += x;\n"
                   "  return acc;\n"
                   "}");
  EvalResult R = eval(*P, "f", {point(0.5), intArg(10)});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_DOUBLE_EQ(R.Return.lo(), 5.0);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 5.0);
}

TEST(Evaluator, ArraysInAndOut) {
  auto P = compile("void scale(double *x, double *y, int n) {\n"
                   "  for (int i = 0; i < n; ++i) y[i] = 2.0 * x[i];\n"
                   "}");
  EvalResult R = eval(*P, "scale",
                      {arr({Interval::fromPoint(1.0),
                            Interval::fromPoint(-3.0)}),
                       arr({Interval::fromPoint(0.0),
                            Interval::fromPoint(0.0)}),
                       intArg(2)});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_FALSE(R.HasReturn);
  ASSERT_EQ(R.ArrayOutputs.size(), 2u);
  ASSERT_EQ(R.ArrayOutputs[1].size(), 2u);
  EXPECT_DOUBLE_EQ(R.ArrayOutputs[1][0].lo(), 2.0);
  EXPECT_DOUBLE_EQ(R.ArrayOutputs[1][1].hi(), -6.0 + 0.0); // -6 exactly
  EXPECT_DOUBLE_EQ(R.ArrayOutputs[1][1].lo(), -6.0);
}

TEST(Evaluator, OutOfBoundsIsATypedErrorNotACrash) {
  auto P = compile("double f(double *x, int n) { return x[n]; }");
  EvalResult R = eval(*P, "f", {arr({Interval::fromPoint(1.0)}), intArg(5)});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "out-of-bounds");
}

TEST(Evaluator, UnknownBranchIsTypedErrorUnderExceptionPolicy) {
  auto P = compile("double f(double x) {\n"
                   "  if (x > 0.0) return 1.0;\n"
                   "  return -1.0;\n"
                   "}");
  // [-1, 1] straddles the comparison: TBool::Unknown.
  EvalResult R = eval(*P, "f", {scalar(-1.0, 1.0)});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "unknown-branch");

  // A decided condition works.
  EvalResult R2 = eval(*P, "f", {scalar(0.5, 1.0)});
  ASSERT_TRUE(R2.Ok);
  EXPECT_DOUBLE_EQ(R2.Return.hi(), 1.0);
}

TEST(Evaluator, JoinPolicyHullsBothBranches) {
  auto P = compile("double f(double x) {\n"
                   "  double r = 0.0;\n"
                   "  if (x > 0.0) r = 1.0; else r = -1.0;\n"
                   "  return r;\n"
                   "}",
                   /*Join=*/true);
  EvalResult R = eval(*P, "f", {scalar(-1.0, 1.0)});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_DOUBLE_EQ(R.Return.lo(), -1.0);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 1.0);
}

TEST(Evaluator, ReductionAccumulatorRuns) {
  auto P = compile("double dot(double *a, double *b, int n) {\n"
                   "  double s = 0.0;\n"
                   "  #pragma igen reduce\n"
                   "  for (int i = 0; i < n; ++i) s += a[i] * b[i];\n"
                   "  return s;\n"
                   "}",
                   /*Join=*/false, /*Reductions=*/true);
  std::vector<Interval> A, B;
  for (int I = 0; I < 100; ++I) {
    A.push_back(Interval::fromPoint(0.1 * I));
    B.push_back(Interval::fromPoint(1.0));
  }
  EvalResult R = eval(*P, "dot", {arr(A), arr(B), intArg(100)});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  long double Ref = 0.0L;
  for (int I = 0; I < 100; ++I)
    Ref += (long double)(0.1 * I);
  EXPECT_LE((long double)R.Return.lo(), Ref);
  EXPECT_GE((long double)R.Return.hi(), Ref);
}

TEST(Evaluator, ToleranceParameterWidens) {
  auto P = compile("double f(double:0.5 a) { return a; }");
  EvalArg A;
  A.K = EvalArg::Kind::Tolerance;
  A.Point = 10.0;
  EvalResult R = eval(*P, "f", {A});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_DOUBLE_EQ(R.Return.lo(), 9.5);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 10.5);
}

TEST(Evaluator, StepLimitStopsRunawayLoops) {
  auto P = compile("double f(double x) {\n"
                   "  while (x < 1.0e308) x = x + 0.0;\n"
                   "  return x;\n"
                   "}");
  EvalOptions EO;
  EO.StepLimit = 10000;
  RoundUpwardScope Up;
  EvalResult R = evalFunction(*P, "f", {point(0.0)}, EO);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "step-limit");
}

TEST(Evaluator, RecursionLimit) {
  auto P = compile("double f(double x) { return f(x) + 1.0; }");
  EvalResult R = eval(*P, "f", {point(0.0)});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "recursion-limit");
}

TEST(Evaluator, IntDivZero) {
  auto P = compile("double f(int n) { int m = 10 / n; return 1.0; }");
  EvalResult R = eval(*P, "f", {intArg(0)});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "int-div-zero");
}

TEST(Evaluator, NoSuchFunctionAndBadArity) {
  auto P = compile("double f(double x) { return x; }");
  EvalResult R = eval(*P, "nope", {point(0.0)});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "no-such-function");

  EvalResult R2 = eval(*P, "f", {});
  ASSERT_FALSE(R2.Ok);
  EXPECT_EQ(R2.Error.Code, "bad-argument");
}

TEST(Evaluator, PoisonedEntryReturnsWhole) {
  auto P = compile("double f(double x) { return x; }");
  EvalOptions EO;
  EO.PoisonedEntry = true;
  RoundUpwardScope Up;
  EvalResult R = evalFunction(*P, "f", {point(3.0)}, EO);
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(std::isinf(R.Return.lo()));
  EXPECT_TRUE(std::isinf(R.Return.hi()));
}

TEST(Evaluator, UserFunctionCalls) {
  auto P = compile("double sq(double x) { return x * x; }\n"
                   "double f(double x) { return sq(x) + sq(x + 1.0); }");
  EvalResult R = eval(*P, "f", {point(2.0)});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_DOUBLE_EQ(R.Return.lo(), 13.0);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 13.0);
}

TEST(Evaluator, FloatCastRoundsOutwardToTheFloatGrid) {
  auto P = compile("double f(double x) { return (float)x; }");
  RoundUpwardScope Up;
  EvalArg X;
  X.Scalar = Interval::fromEndpoints(-7.4, -5.3);
  EvalResult R = evalFunction(*P, "f", {X}, {});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(R.Return.lo(), -7.400000095367432);
  EXPECT_EQ(R.Return.hi(), -5.299999713897705);
}

TEST(Evaluator, DoubleDoubleProgramsAreRejectedTyped) {
  DiagnosticsEngine Diags;
  TransformOptions Opts;
  Opts.Prec = TransformOptions::Precision::DoubleDouble;
  Opts.ScalarLibrary = true;
  auto P = compileToProgram("double f(double x) { return x; }", Opts, Diags);
  ASSERT_NE(P, nullptr);
  RoundUpwardScope Up;
  EvalResult R = evalFunction(*P, "f", {point(1.0)}, {});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "unsupported");
}

TEST(Evaluator, PinnedGoldens) {
  // Exact return bits, array bits, ops counts and typed errors, recorded
  // from the evaluator at the time the goldens were written.
  for (const evalgolden::GoldenCase &C : evalgolden::GoldenCases)
    EXPECT_EQ(evalgolden::runCase(C, IGEN_INPUTS_DIR), C.Expect)
        << C.Fn << "(" << C.Args << ") [" << C.Opts << "]";
}

} // namespace

//===- EvalGoldens.h - Pinned observable behaviour of serve eval -*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden cases for the serve evaluator: for each (program, function,
/// arguments, options) the exact observable outcome, as one signature
/// line — the returned interval's endpoint bits (or int, or nothing),
/// a hash of every array output's bits, the executed-op count the `ops`
/// response field reports, and for failures the typed error code and
/// message. The goldens were recorded from the AST-walking evaluator the
/// register executor replaced; the executor must reproduce every line.
///
/// Sources starting with '@' name a file under IGEN_INPUTS_DIR (the
/// ExecServeCompare inputs; scalark.c holds the eval-scalar benchmark
/// kernels). A program the front half rejects pins its diagnostics as
/// "compile error: ..." instead. Arguments are space-separated tokens:
/// `p<x>` point, `i<lo>,<hi>` interval, `n<k>` int, `t<x>` tolerance
/// point, `a<x>,<y>,...` array of points. Options: `join`, `red`,
/// `poison`, `steps=<n>`, `depth=<n>`.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_TESTS_SERVER_EVALGOLDENS_H
#define IGEN_TESTS_SERVER_EVALGOLDENS_H

#include "interval/Rounding.h"
#include "server/Evaluator.h"
#include "support/StringExtras.h"
#include "transform/Pipeline.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace igen::evalgolden {

struct GoldenCase {
  const char *Source;
  const char *Fn;
  const char *Args;
  const char *Opts;
  const char *Expect;
};

/// Control flow: recursion, early return, break/continue, while/do.
inline const char *FlowModule =
    "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n"
    "double dfact(double x, int n) {\n"
    "  if (n == 0) return 1.0;\n"
    "  return x * dfact(x, n - 1);\n"
    "}\n"
    "double early(double x, int n) {\n"
    "  double s = 0.0;\n"
    "  for (int i = 0; i < n; i++) {\n"
    "    s = s + x;\n"
    "    if (i == 3) return s * 2.0;\n"
    "  }\n"
    "  return s;\n"
    "}\n"
    "double brk(double x, int n) {\n"
    "  double s = 0.0;\n"
    "  for (int i = 0; i < n; i++) {\n"
    "    if (i % 3 == 1) continue;\n"
    "    if (i > 10) break;\n"
    "    for (int j = 0; j < i; j++) { if (j == 2) break; s = s + x; }\n"
    "    s = s * 0.5;\n"
    "  }\n"
    "  return s;\n"
    "}\n"
    "double wh(double x, int n) {\n"
    "  int i = 0;\n"
    "  double s = x;\n"
    "  while (i < n) {\n"
    "    i++;\n"
    "    if (i == 2) continue;\n"
    "    s = s * 1.5 - 0.25;\n"
    "  }\n"
    "  do { s = s + 1.0; i = i - 3; } while (i > 0);\n"
    "  return s;\n"
    "}\n"
    "double dw(double x, int n) {\n"
    "  int k = n;\n"
    "  do {\n"
    "    k--;\n"
    "    if (k == 4) continue;\n"
    "    if (k < 2) break;\n"
    "    x = x + 0.125;\n"
    "  } while (k > 0);\n"
    "  while (1) { x = x * 2.0; if (x > 100.0) break; }\n"
    "  return x;\n"
    "}\n"
    "double runaway(double x) { while (x < 1.0e308) x = x + 0.0; return x; }\n"
    "double deep(double x, int n) { if (n == 0) return x; return deep(x + 1.0, n - 1); }\n";

/// Typed errors, lazy failures and the walker's value-category corners.
inline const char *CornerModule =
    "double simd_untaken(double x, int k) {\n"
    "  if (k > 0) x = _mm256_cvtsd_f64(_mm256_set1_pd(x));\n"
    "  return x + 1.0;\n"
    "}\n"
    "double uninit_read() { double x; return x + 1.0; }\n"
    "double uninit_compound() { double t; t += 1.0; return t; }\n"
    "double uninit_int() { int y; y = 5; return 1.0; }\n"
    "double assigned_later(double a, int n) {\n"
    "  double t;\n"
    "  double s = 0.0;\n"
    "  for (int i = 0; i < n; i++) { if (i > 0) s = s + t; t = a * i; }\n"
    "  return s;\n"
    "}\n"
    "double oob(double *x, int n) { return x[n]; }\n"
    "double oob_store(double *x, int n) { x[n] = 1.0; return 0.0; }\n"
    "double divz(int n) { int m = 10 / n; return 1.0; }\n"
    "double remz(int n) { int m = 10 % n; return 1.0; }\n"
    "double rec(double x) { return rec(x) + 1.0; }\n"
    "double int_ret() { return 1; }\n"
    "void nothing(double *y) { y[0] = 2.0; }\n"
    "double falloff(double x) { if (x > 0.0) return x; }\n"
    "double cond_mix(int k) { return k ? 1 : 2.0; }\n"
    "double int_update(int c) { c *= 2; c -= 1; return c; }\n"
    "double ptr_arith(double *a, int n) {\n"
    "  double *p = a + 1;\n"
    "  double s = *p + *(a + n);\n"
    "  return s + p[1];\n"
    "}\n"
    "double addr_of(double x) {\n"
    "  double y = x;\n"
    "  double *p = &y;\n"
    "  *p = *p * 2.0;\n"
    "  p[0] += 1.0;\n"
    "  return y + x;\n"
    "}\n"
    "double local_arr(double x, int n) {\n"
    "  double s = 0.0;\n"
    "  for (int k = 0; k < 3; k++) {\n"
    "    double a[4];\n"
    "    s = s + a[k];\n"
    "    for (int i = 0; i < 4; i++) a[i] = x * i + k;\n"
    "    s = s + a[n];\n"
    "  }\n"
    "  return s;\n"
    "}\n"
    "double casts(double x, int n) {\n"
    "  float f = (float)n;\n"
    "  double d = (double)(unsigned)n + (int)(n * 3);\n"
    "  return f + d + (float)x;\n"
    "}\n"
    "double logic(double x, int n) {\n"
    "  int c = 0;\n"
    "  double s = 0.0;\n"
    "  if (n > 2 && (c = c + 1) > 0) s = s + 1.0;\n"
    "  if (n > 100 || (c = c + 10) > 0) s = s + 2.0;\n"
    "  if (x > 0.0 && n > 1) s = s + 4.0;\n"
    "  if (!(x < 0.0) || x > 10.0) s = s + 8.0;\n"
    "  if (!n) s = s + 16.0;\n"
    "  return s + c;\n"
    "}\n"
    "int bits(int a, int b) {\n"
    "  return ((a << 3) ^ (b >> 1)) + (a & b) - (a | b) + ~a + -b + a / b + a % b;\n"
    "}\n"
    "double nested_join(double x, double y) {\n"
    "  double r = 0.0;\n"
    "  double q = 1.0;\n"
    "  if (x > 0.0) {\n"
    "    r = x;\n"
    "    if (y > 0.0) { q = y; } else { q = 0.0 - y; r = r + 1.0; }\n"
    "  } else {\n"
    "    r = 0.0 - x;\n"
    "  }\n"
    "  return r * q;\n"
    "}\n"
    "double red_break(double *a, int n) {\n"
    "  double s = 0.0;\n"
    "  #pragma igen reduce s\n"
    "  for (int i = 0; i < n; i++) { if (i == 5) break; s += a[i]; }\n"
    "  return s;\n"
    "}\n"
    "double red_return(double *a, int n) {\n"
    "  double s = 0.0;\n"
    "  #pragma igen reduce s\n"
    "  for (int i = 0; i < n; i++) { s = s + a[i]; if (i == 2) return s; }\n"
    "  return s;\n"
    "}\n"
    "double red_arr(double *a, double *out, int n) {\n"
    "  #pragma igen reduce out\n"
    "  for (int j = 0; j < 2; j++)\n"
    "    for (int i = 0; i < n; i++) out[j] = out[j] + a[i] * j;\n"
    "  return out[0] + out[1];\n"
    "}\n"
    "int red_int(int n) {\n"
    "  int c = 1;\n"
    "  #pragma igen reduce c\n"
    "  for (int i = 0; i < n; i++) c += i;\n"
    "  return c;\n"
    "}\n"
    "double wh_unknown(double x) { while (x < 2.0) x = x + 1.0; return x; }\n"
    "double self_ref(double x, int n) {\n"
    "  double s = 0.0;\n"
    "  for (int i = 0; i < n; i++) { double y = y + x; s = s + y; }\n"
    "  return s;\n"
    "}\n"
    "double tol2(double:0.125 a, double b) { return a * b; }\n"
    "double void_use(double *y) { nothing(y); return y[0]; }\n"
    "double int_in_expr(int n) { return fib2(n) * 0.5; }\n"
    "int fib2(int n) { if (n < 2) return n; return fib2(n - 1) + fib2(n - 2); }\n"
    "double neg_int(int n) { int m = -n; m++; ++m; m--; return -m * 1.0; }\n"
    "double unary_tb(double x) { if (!(x > 1.0)) return 1.0; return 2.0; }\n"
    "double maths(double x) { return floor(x) + ceil(x) + tan(x) + atan(x) + asin(0.5) + acos(0.25) + fmin(x, 2.0); }\n"
    "double seq(double x) { double y = 1.0; return y + (y = x * 3.0); }\n"
    "double ext(double x) { return extern_fn(x); }\n"
    "double extern_fn(double x);\n"
    "double alloc(int n) { double *p = malloc(n); return 1.0; }\n"
    "double arr_init(double x) { double a[3] = x; return 1.0; }\n"
    "double int_arr(int *p) { p[0] = 1; return 1.0; }\n"
    "double ptr_assign(double *a, double *b) { double *p = a; p = b; return 1.0; }\n"
    "double cond_float_side(int k, double x) { double r = k > 1 ? x * 2.0 : 1; return r; }\n";

/// Every golden: eval-scalar kernels first (the workload's options),
/// then the ExecServeCompare inputs, control flow, limits and corners.
inline const GoldenCase GoldenCases[] = {
#include "EvalGoldenCases.inc"
};

/// Parses one golden's argument string.
inline std::vector<server::EvalArg> parseArgs(const std::string &Spec) {
  std::vector<server::EvalArg> Out;
  std::istringstream In(Spec);
  std::string Tok;
  while (In >> Tok) {
    server::EvalArg A;
    std::string Body = Tok.substr(1);
    auto Num = [](const std::string &S) { return std::strtod(S.c_str(), nullptr); };
    switch (Tok[0]) {
    case 'p':
      A.Scalar = Interval::fromPoint(Num(Body));
      break;
    case 'i': {
      size_t C = Body.find(',');
      A.Scalar = Interval::fromEndpoints(Num(Body.substr(0, C)),
                                         Num(Body.substr(C + 1)));
      break;
    }
    case 'n':
      A.K = server::EvalArg::Kind::Int;
      A.IntValue = std::atoll(Body.c_str());
      break;
    case 't':
      A.K = server::EvalArg::Kind::Tolerance;
      A.Point = Num(Body);
      break;
    case 'a': {
      A.K = server::EvalArg::Kind::Array;
      std::istringstream Elems(Body);
      std::string E;
      while (std::getline(Elems, E, ','))
        A.Elements.push_back(Interval::fromPoint(Num(E)));
      break;
    }
    }
    Out.push_back(A);
  }
  return Out;
}

inline std::string hexBits(double D) {
  unsigned long long U;
  std::memcpy(&U, &D, sizeof U);
  char Buf[24];
  std::snprintf(Buf, sizeof Buf, "%016llx", U);
  return Buf;
}

/// The signature line of one result.
inline std::string signature(const server::EvalResult &R) {
  std::string S;
  if (!R.Ok)
    return "err " + R.Error.Code + " ops=" + std::to_string(R.OpsExecuted) +
           " \"" + R.Error.Message + "\"";
  S = "ok ops=" + std::to_string(R.OpsExecuted) + " ret=";
  if (!R.HasReturn)
    S += "none";
  else if (R.ReturnIsInt)
    S += "int:" + std::to_string(R.ReturnInt);
  else
    S += "iv:" + hexBits(R.Return.NegLo) + ":" + hexBits(R.Return.Hi);
  if (!R.ArrayOutputs.empty()) {
    unsigned long long H = 1469598103934665603ull;
    for (const auto &Arr : R.ArrayOutputs)
      for (const Interval &I : Arr)
        for (double D : {I.NegLo, I.Hi}) {
          unsigned long long U;
          std::memcpy(&U, &D, sizeof U);
          H = (H ^ U) * 1099511628211ull;
        }
    char Buf[24];
    std::snprintf(Buf, sizeof Buf, "%016llx", H);
    S += " arrays=" + std::to_string(R.ArrayOutputs.size()) + ":" + Buf;
  }
  return S;
}

/// Compiles (cached per source) and evaluates one golden case.
inline std::string runCase(const GoldenCase &C, const std::string &InputsDir) {
  static std::vector<std::pair<std::string,
                               std::shared_ptr<const InMemoryProgram>>>
      Cache;
  std::string Key = C.Source;
  std::shared_ptr<const InMemoryProgram> Prog;
  for (auto &E : Cache)
    if (E.first == Key)
      Prog = E.second;
  if (!Prog) {
    std::string Source = C.Source;
    if (C.Source[0] == '@' &&
        !readFile(InputsDir + "/" + (C.Source + 1), Source))
      return "cannot read input";
    DiagnosticsEngine Diags;
    TransformOptions Opts;
    Opts.OptLevel = 0;
    Opts.ScalarLibrary = true;
    auto P = compileToProgram(Source, Opts, Diags);
    if (!P)
      return "compile error: " + Diags.render("<golden>");
    Prog = std::shared_ptr<const InMemoryProgram>(std::move(P));
    Cache.emplace_back(Key, Prog);
  }
  server::EvalOptions EO;
  std::istringstream In(C.Opts);
  std::string Tok;
  while (In >> Tok) {
    if (Tok == "join")
      EO.JoinBranches = true;
    else if (Tok == "red")
      EO.EnableReductions = true;
    else if (Tok == "poison")
      EO.PoisonedEntry = true;
    else if (Tok.rfind("steps=", 0) == 0)
      EO.StepLimit = std::strtoull(Tok.c_str() + 6, nullptr, 10);
    else if (Tok.rfind("depth=", 0) == 0)
      EO.MaxCallDepth = (unsigned)std::strtoul(Tok.c_str() + 6, nullptr, 10);
  }
  RoundUpwardScope Up;
  return signature(server::evalFunction(*Prog, C.Fn, parseArgs(C.Args), EO));
}

} // namespace igen::evalgolden

#endif // IGEN_TESTS_SERVER_EVALGOLDENS_H

//===- PipelineDifferentialTest.cpp - One front half, two back ends -------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// compileToProgram (eval code) and compileToIntervals (C text) run the
// same front half: parse, Sema, lowering facts, subset check. Over every
// transform input, bench kernel and frontend fuzz seed, and over a
// program per subset rejection, under -O0/-O1 x ss/sv x f64/dd, both must
// fail at the same stage with identical diagnostics. On success the C
// back end may only add warnings after the shared ones.
//
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace igen;

namespace {

struct Input {
  std::string Name;
  std::string Source;
};

std::vector<Input> inputs() {
  namespace fs = std::filesystem;
  const fs::path Root = IGEN_SOURCE_ROOT;
  std::vector<Input> In;
  for (const char *Dir : {"tests/transform/Inputs", "bench/kernels",
                          "tools/fuzz/corpus/frontend"}) {
    std::vector<fs::path> Files;
    for (const fs::directory_entry &E : fs::directory_iterator(Root / Dir))
      if (E.is_regular_file())
        Files.push_back(E.path());
    std::sort(Files.begin(), Files.end());
    for (const fs::path &P : Files) {
      std::ifstream F(P);
      std::stringstream SS;
      SS << F.rdbuf();
      In.push_back({(fs::path(Dir) / P.filename()).string(), SS.str()});
    }
  }
  // One program per subset rejection, plus the int/double compound mix.
  const char *Rejected[] = {
      "double f(double x) { double y = (x < 1.0); return y; }",
      "double f(double x) { return x < 1.0 ? x : 1.0; }",
      "double f(double x) { x++; return x; }",
      "double f(__m256d a, __m256d b) { if (a < b) return 1.0; return 0.0; }",
      "double f(double x) { if (x == 1.0) return 0.0; return x; }",
      "double f(double *p) { *(p + 1) = 2.0; return p[0]; }",
      "double f(double x) { return fmin(x); }",
      "double f(int c) { c += 1.5; return c; }",
      "int f(double x) { int c; c = x; return c; }",
      "int f(double x) { int k = x; return k; }",
      "int f(double x) { return x; }",
      "int f(double x) { return x < 1.0; }",
      "int f(int k, double x) { return k ? 1 : x < 2.0; }",
  };
  for (const char *S : Rejected)
    In.push_back({S, S});
  return In;
}

std::string show(const std::vector<Diagnostic> &Ds) {
  std::string S;
  for (const Diagnostic &D : Ds)
    S += std::to_string(D.Loc.Line) + ":" + std::to_string(D.Loc.Col) + ": " +
         D.Message + "\n";
  return S;
}

bool same(const Diagnostic &A, const Diagnostic &B) {
  return A.Severity == B.Severity && A.Loc.Line == B.Loc.Line &&
         A.Loc.Col == B.Loc.Col && A.Message == B.Message;
}

} // namespace

TEST(PipelineDifferential, BackEndsShareTheFrontHalf) {
  std::vector<Input> In = inputs();
  ASSERT_GT(In.size(), 20u);
  unsigned Failures = 0, Runs = 0;
  for (const Input &I : In)
    for (int Opt : {0, 1})
      for (bool Ss : {true, false})
        for (bool Dd : {false, true}) {
          TransformOptions Opts;
          Opts.OptLevel = Opt;
          Opts.ScalarLibrary = Ss;
          if (Dd)
            Opts.Prec = TransformOptions::Precision::DoubleDouble;
          SCOPED_TRACE(I.Name + " -O" + std::to_string(Opt) +
                       (Ss ? " ss" : " sv") + (Dd ? " dd" : " f64"));
          DiagnosticsEngine DP, DI;
          PipelineStage SP, SI;
          std::unique_ptr<InMemoryProgram> Prog =
              compileToProgram(I.Source, Opts, DP, nullptr, &SP);
          std::optional<std::string> C =
              compileToIntervals(I.Source, Opts, DI, nullptr, &SI);
          ++Runs;
          ASSERT_EQ(SP, SI);
          ASSERT_EQ(Prog != nullptr, C.has_value());
          const std::vector<Diagnostic> &P = DP.diagnostics();
          const std::vector<Diagnostic> &Q = DI.diagnostics();
          if (!Prog) {
            ++Failures;
            EXPECT_EQ(show(P), show(Q));
            EXPECT_TRUE(std::equal(P.begin(), P.end(), Q.begin(), Q.end(),
                                   same));
            continue;
          }
          EXPECT_TRUE(Prog->EmittedC.empty());
          EXPECT_EQ(Prog->Eval != nullptr, !Dd);
          ASSERT_LE(P.size(), Q.size()) << show(P) << show(Q);
          EXPECT_TRUE(std::equal(P.begin(), P.end(), Q.begin(), same));
          for (size_t K = P.size(); K < Q.size(); ++K)
            EXPECT_EQ(Q[K].Severity, DiagSeverity::Warning) << Q[K].Message;
        }
  // Every rejection program fails in all eight configurations (==/!= only
  // under dd, four), and so does the frontend corpus' broken.c.
  EXPECT_EQ(Failures, 13u * 8u - 4u + 8u) << "of " << Runs;
  EXPECT_EQ(Runs, 8u * In.size());
}

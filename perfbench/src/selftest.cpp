//===- selftest.cpp - Self-test of the compile-churn module generator -----===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "commands.h"
#include "modgen.h"

#include "interval/Rounding.h"
#include "server/Evaluator.h"
#include "transform/Pipeline.h"

using namespace pb;
using namespace igen;
using namespace igen::server;

namespace {
/// Modules checked per self-test.
constexpr int Modules = 500;
} // namespace

int pb::runSelfTest(uint64_t Seed) {
  Rng A(Seed), B(Seed), Args(Seed + 1);
  int Problems = 0, Valid = 0, Invalid = 0, Evaluated = 0;
  auto Problem = [&](int I, const std::string &What) {
    if (++Problems <= 10)
      std::fprintf(stderr, "perfbench selftest: module %d: %s\n", I,
                   What.c_str());
  };
  for (int I = 0; I < Modules; ++I) {
    GenModule M = generateModule(A), Again = generateModule(B);
    if (M.Source != Again.Source || M.optionsJson() != Again.optionsJson())
      Problem(I, "generator is not deterministic for this seed");

    TransformOptions Opts;
    Opts.OptLevel = M.OptLevel;
    Opts.ScalarLibrary = M.TargetSs;
    if (M.Dd)
      Opts.Prec = TransformOptions::Precision::DoubleDouble;
    if (M.Join)
      Opts.Branches = TransformOptions::BranchPolicy::Join;
    Opts.EnableReductions = M.Reductions;
    DiagnosticsEngine Diags;
    PipelineStage Failed = PipelineStage::None;
    std::unique_ptr<InMemoryProgram> Prog =
        compileToProgram(M.Source, Opts, Diags, nullptr, &Failed);
    PipelineStage Want = M.Bad == GenModule::Invalid::Parse  ? PipelineStage::Parse
                         : M.Bad == GenModule::Invalid::Sema ? PipelineStage::Sema
                                                             : PipelineStage::None;
    if (Failed != Want) {
      Problem(I, "failed at stage " + std::to_string((int)Failed) +
                     ", expected " + std::to_string((int)Want) + ":\n" +
                     M.Source);
      continue;
    }
    if (!Prog) {
      ++Invalid;
      continue;
    }
    ++Valid;
    if (!M.evaluable())
      continue;
    int Fn = (int)M.Fns.size() - 1;
    std::vector<EvalArg> EA;
    std::vector<quad> At;
    for (int P = 0; P < M.NumParams; ++P) {
      Box X = ulpBox(Args.uniform(0.5, 2.0), Args.range(0, 16));
      EvalArg E;
      E.Scalar = Interval::fromEndpoints(X.Lo, X.Hi);
      EA.push_back(E);
      At.push_back(X.mid());
    }
    quad Want128 = M.eval(Fn, At);
    EvalOptions EO;
    EO.JoinBranches = M.Join;
    EO.EnableReductions = M.Reductions;
    EvalResult R;
    {
      RoundUpwardScope Up;
      R = evalFunction(*Prog, GenModule::fnName(Fn), EA, EO);
    }
    ++Evaluated;
    if (!R.Ok)
      Problem(I, "eval failed: " + R.Error.Code + " " + R.Error.Message);
    else if (!contains(R.Return.lo(), R.Return.hi(), Want128))
      Problem(I, "eval result misses the oracle:\n" + M.Source);
  }
  std::printf("selftest: %d modules (%d valid, %d invalid as built, %d "
              "evaluated), %d problems\n",
              Modules, Valid, Invalid, Evaluated, Problems);
  return Problems ? 1 : 0;
}

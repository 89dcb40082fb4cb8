//===- modgen.cpp - Seeded C-subset module generator ----------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "modgen.h"

using namespace pb;

namespace {

/// A decimal literal K/1000 with K in [Lo, Hi] (e.g. "0.731").
Lit literal(Rng &R, int Lo, int Hi) {
  int K = R.range(Lo, Hi);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%d.%03d", K / 1000, K % 1000);
  return {Buf, std::strtod(Buf, nullptr)};
}

int add(GenModule &M, GenNode N) {
  M.Nodes.push_back(std::move(N));
  return (int)M.Nodes.size() - 1;
}

/// A random expression of depth <= \p Depth. Leaves are parameters,
/// constants in [0.1, 2] and (inside loops) i * c with c <= 0.05, so
/// every value stays well inside the double range for the loop bounds
/// used below.
int expr(GenModule &M, Rng &R, int Depth, bool InLoop) {
  if (Depth == 0 || R.chance(0.25)) {
    GenNode N;
    int Pick = R.range(0, InLoop ? 5 : 4);
    if (Pick <= 2) {
      N.K = GenNode::Param;
      N.Idx = R.range(0, M.NumParams - 1);
    } else if (Pick <= 4) {
      N.K = GenNode::Const;
      N.Lit = literal(R, 100, 2000);
    } else {
      N.K = GenNode::Iter;
      N.Lit = literal(R, 1, 50);
    }
    return add(M, std::move(N));
  }
  static const GenNode::Kind Ops[] = {
      GenNode::Add,    GenNode::Add,      GenNode::Sub, GenNode::Mul,
      GenNode::Mul,    GenNode::DivSq,    GenNode::SqrtSq,
      GenNode::ExpNegSq, GenNode::Sin};
  GenNode N;
  N.K = Ops[R.range(0, (int)(sizeof(Ops) / sizeof(Ops[0])) - 1)];
  N.A = expr(M, R, Depth - 1, InLoop);
  if (N.K == GenNode::Add || N.K == GenNode::Sub || N.K == GenNode::Mul ||
      N.K == GenNode::DivSq)
    N.B = expr(M, R, Depth - 1, InLoop);
  return add(M, std::move(N));
}

std::string render(const GenModule &M, int N) {
  const GenNode &X = M.Nodes[N];
  auto Sub = [&](int I) { return render(M, I); };
  switch (X.K) {
  case GenNode::Const:
    return X.Lit.Text;
  case GenNode::Param:
    return "p" + std::to_string(X.Idx);
  case GenNode::Iter:
    return "i * " + X.Lit.Text;
  case GenNode::Add:
    return "(" + Sub(X.A) + " + " + Sub(X.B) + ")";
  case GenNode::Sub:
    return "(" + Sub(X.A) + " - " + Sub(X.B) + ")";
  case GenNode::Mul:
    return "(" + Sub(X.A) + " * " + Sub(X.B) + ")";
  case GenNode::DivSq: {
    std::string B = Sub(X.B);
    return "(" + Sub(X.A) + " / (1.0 + " + B + " * " + B + "))";
  }
  case GenNode::SqrtSq: {
    std::string A = Sub(X.A);
    return "sqrt(1.0 + " + A + " * " + A + ")";
  }
  case GenNode::ExpNegSq: {
    std::string A = Sub(X.A);
    return "exp(0.0 - " + A + " * " + A + ")";
  }
  case GenNode::Sin:
    return "sin(" + Sub(X.A) + ")";
  }
  return "0.0";
}

std::string renderFunction(const GenModule &M, int Fi) {
  const GenFunction &F = M.Fns[Fi];
  std::string Params;
  for (int P = 0; P < M.NumParams; ++P)
    Params += (P ? ", double p" : "double p") + std::to_string(P);
  std::string S = "double " + GenModule::fnName(Fi) + "(" + Params + ") {\n";
  S += "  double acc = " + F.Init.Text + ";\n";
  if (F.LoopBound > 0) {
    if (F.SumLoop && M.Reductions)
      S += "  #pragma igen reduce\n";
    S += "  for (int i = 0; i < " + std::to_string(F.LoopBound) +
         "; i++) {\n";
    S += "    double t = " + render(M, F.Body) + ";\n";
    if (F.SumLoop) {
      S += "    acc += t;\n";
    } else {
      S += "    acc = acc * " + F.Damp.Text + " + t;\n";
      if (F.Branch)
        S += "    if (t > " + F.BranchAt.Text + ") {\n      acc = acc + " +
             F.BranchStep.Text + ";\n    } else {\n      acc = acc - " +
             F.BranchStep.Text + ";\n    }\n";
    }
    S += "  }\n";
  }
  S += "  return acc + " + render(M, F.Ret);
  if (F.Callee >= 0) {
    S += " + " + GenModule::fnName(F.Callee) + "(";
    for (int P = 0; P < M.NumParams; ++P)
      S += (P ? ", p" : "p") + std::to_string(P);
    S += ")";
  }
  S += ";\n}\n";
  return S;
}

} // namespace

std::string GenModule::optionsJson() const {
  std::string S = "{\"opt_level\":" + std::to_string(OptLevel) +
                  ",\"target\":\"" + (TargetSs ? "ss" : "sv") +
                  "\",\"precision\":\"" + (Dd ? "dd" : "f64") + "\"";
  if (Join)
    S += ",\"branch\":\"join\"";
  if (Reductions)
    S += ",\"reductions\":true";
  return S + "}";
}

GenModule pb::generateModule(Rng &R) {
  GenModule M;
  M.NumParams = R.range(1, 3);
  int NumFns = R.range(1, 5);
  M.OptLevel = R.range(0, 1);
  M.TargetSs = R.chance(0.5);
  M.Dd = R.chance(0.15);
  M.Reductions = R.chance(0.3);
  for (int Fi = 0; Fi < NumFns; ++Fi) {
    GenFunction F;
    F.Init = literal(R, 0, 1000);
    if (R.chance(0.8)) {
      F.LoopBound = R.range(4, 48);
      F.SumLoop = R.chance(0.4);
      F.Damp = literal(R, 300, 900);
      F.Branch = !F.SumLoop && R.chance(0.35);
      F.BranchAt = literal(R, 500, 3000);
      F.BranchStep = literal(R, 1, 500);
      F.Body = expr(M, R, 3, /*InLoop=*/true);
    }
    F.Ret = expr(M, R, 2, /*InLoop=*/false);
    if (Fi > 0 && R.chance(0.5))
      F.Callee = R.range(0, Fi - 1);
    M.Join = M.Join || F.Branch;
    M.Fns.push_back(std::move(F));
  }
  if (!M.Join)
    M.Join = R.chance(0.2);

  for (int Fi = 0; Fi < NumFns; ++Fi)
    M.Source += renderFunction(M, Fi);

  // About 5% are invalid by construction: a missing ';' fails in the
  // parser, a use of an undeclared name in Sema.
  double Roll = R.uniform(0.0, 1.0);
  if (Roll < 0.025) {
    M.Bad = GenModule::Invalid::Parse;
    size_t P = M.Source.rfind(";\n}");
    M.Source.erase(P, 1);
  } else if (Roll < 0.05) {
    M.Bad = GenModule::Invalid::Sema;
    size_t P = M.Source.rfind("  return acc");
    M.Source.insert(P, "  acc = acc + undeclared_q;\n");
  }
  return M;
}

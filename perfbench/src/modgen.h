//===- modgen.h - Seeded C-subset module generator -------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the compile-churn workload's modules: 1-5 functions of the
/// IGen C subset with seeded constants, loop bounds, loop kinds,
/// branches, elementary calls, calls between functions and expression
/// shapes, plus compile options. A small share is made invalid on
/// purpose so it fails at a known pipeline stage. Each generated
/// function can also be evaluated directly over any number type, which
/// gives the binary128 oracle and the double baseline for the same code.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MODGEN_H
#define PERFBENCH_MODGEN_H

#include "common.h"

#include <string>
#include <vector>

namespace pb {

/// A decimal literal: its spelling in the C source and the double it
/// reads as (the oracle's value; IGen encloses the decimal itself, and
/// that enclosure contains the double).
struct Lit {
  std::string Text;
  double Val = 0.0;
};

struct GenNode {
  enum Kind {
    Const,    ///< decimal literal
    Param,    ///< p<Idx>
    Iter,     ///< i * <literal> (loop bodies only)
    Add,
    Sub,
    Mul,
    DivSq,    ///< A / (1.0 + B * B)
    SqrtSq,   ///< sqrt(1.0 + A * A)
    ExpNegSq, ///< exp(0.0 - A * A)
    Sin,      ///< sin(A)
  };
  Kind K = Const;
  pb::Lit Lit; ///< Const, Iter
  int Idx = 0; ///< parameter index (Param)
  int A = -1, B = -1;
};

struct GenFunction {
  int LoopBound = 0;    ///< 0 = no loop
  bool SumLoop = false; ///< acc += t (else acc = acc * Damp + t)
  bool Branch = false;  ///< if (t > BranchAt) inside a damped loop
  Lit Init, Damp, BranchAt, BranchStep;
  int Body = -1;        ///< loop term t
  int Ret = -1;         ///< added to acc at return
  int Callee = -1;      ///< earlier function called at return, or -1
};

struct GenModule {
  enum class Invalid { None, Parse, Sema };
  int NumParams = 1;
  std::vector<GenNode> Nodes;
  std::vector<GenFunction> Fns;
  int OptLevel = 1;
  bool TargetSs = false;
  bool Dd = false;
  bool Join = false;
  bool Reductions = false;
  Invalid Bad = Invalid::None;
  std::string Source;

  /// The compile request's "options" object.
  std::string optionsJson() const;
  /// True when a successful compile is followed by an eval (f64 only:
  /// the serve evaluator does not run double-double programs).
  bool evaluable() const { return Bad == Invalid::None && !Dd; }
  static std::string fnName(int I) { return "g" + std::to_string(I); }

  /// Evaluates function \p Fn at the point \p Args (any vector of
  /// double or quad).
  template <typename V>
  typename V::value_type eval(int Fn, const V &Args) const;

private:
  template <typename V>
  typename V::value_type node(int N, const V &P, int I) const;
};

/// Draws one module. Deterministic in the state of \p R.
GenModule generateModule(Rng &R);

template <typename V>
typename V::value_type GenModule::node(int N, const V &P, int I) const {
  using T = typename V::value_type;
  const GenNode &X = Nodes[N];
  switch (X.K) {
  case GenNode::Const:
    return T(X.Lit.Val);
  case GenNode::Param:
    return P[X.Idx];
  case GenNode::Iter:
    return T(I) * T(X.Lit.Val);
  case GenNode::Add:
    return node(X.A, P, I) + node(X.B, P, I);
  case GenNode::Sub:
    return node(X.A, P, I) - node(X.B, P, I);
  case GenNode::Mul:
    return node(X.A, P, I) * node(X.B, P, I);
  case GenNode::DivSq: {
    T B = node(X.B, P, I);
    return node(X.A, P, I) / (T(1.0) + B * B);
  }
  case GenNode::SqrtSq: {
    T A = node(X.A, P, I);
    return sqrtT(T(1.0) + A * A);
  }
  case GenNode::ExpNegSq: {
    T A = node(X.A, P, I);
    return expT(T(0.0) - A * A);
  }
  case GenNode::Sin:
    return sinT(node(X.A, P, I));
  }
  return T(0);
}

template <typename V>
typename V::value_type GenModule::eval(int Fn, const V &Args) const {
  using T = typename V::value_type;
  const GenFunction &F = Fns[Fn];
  T Acc = T(F.Init.Val);
  for (int I = 0; I < F.LoopBound; ++I) {
    T Tv = node(F.Body, Args, I);
    if (F.SumLoop) {
      Acc = Acc + Tv;
      continue;
    }
    Acc = Acc * T(F.Damp.Val) + Tv;
    if (F.Branch) {
      if (Tv > T(F.BranchAt.Val))
        Acc = Acc + T(F.BranchStep.Val);
      else
        Acc = Acc - T(F.BranchStep.Val);
    }
  }
  T R = Acc + node(F.Ret, Args, 0);
  if (F.Callee >= 0)
    R = R + eval(F.Callee, Args);
  return R;
}

} // namespace pb

#endif // PERFBENCH_MODGEN_H

//===- LoweringRules.cpp - Lowering decisions shared by both back ends ------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "transform/LoweringRules.h"

#include "frontend/Sema.h"
#include "interval/DecimalFp.h"
#include "interval/Rounding.h"
#include "interval/Ulp.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string_view>

using namespace igen;

namespace {

/// Indexed by MathOp.
constexpr const char *MathNames[] = {"",    "sqrt", "abs",  "floor", "ceil",
                                     "exp", "log",  "sin",  "cos",   "tan",
                                     "atan", "asin", "acos", "min",  "max"};

MathOp canonicalMathOp(std::string_view Callee) {
  if (Callee == "fabs" || Callee == "fabsf")
    return MathOp::Abs;
  if (!Callee.empty() && Callee.back() == 'f')
    Callee.remove_suffix(1); // sinf -> sin: float args promote to double
  if (Callee == "fmin")
    return MathOp::Min;
  if (Callee == "fmax")
    return MathOp::Max;
  for (size_t I = 1; I < std::size(MathNames); ++I)
    if (Callee == MathNames[I])
      return static_cast<MathOp>(I);
  return MathOp::None;
}

/// Double target (Section IV-B): integer-valued constants are exact,
/// others become [prev(v), next(v)]. The double-double target uses the
/// tight decimal enclosure. `0.25t` denotes [-t, t] around zero (IV-C).
LiteralEnclosure literalEnclosure(const FloatLiteralExpr &L) {
  if (L.IsTolerance) {
    DdInterval Enc = ddIntervalFromDecimal(L.Spelling);
    Interval Hull = Enc.outerHull();
    // Stored as (-lo, hi) = (hi, hi).
    return {Interval(Hull.Hi, Hull.Hi), DdInterval(Enc.Hi, Enc.Hi)};
  }
  double V = L.Value;
  Interval F64 = V == std::trunc(V) && std::fabs(V) < 0x1p53
                     ? Interval::fromPoint(V)
                     : Interval::fromEndpoints(nextDown(V), nextUp(V));
  DdInterval Dd = ddIntervalFromDecimal(L.Spelling);
  if (Dd.hasNaN())
    Dd = DdInterval::fromPoint(V);
  return {F64, Dd};
}

/// `a:0.1` widens by the tolerance literal rounded upward (Fig. 3).
double toleranceUp(const VarDecl &P) {
  DdInterval Enc = ddIntervalFromDecimal(P.ToleranceSpelling);
  return Enc.hasNaN() ? P.Tolerance : ddToDoubleUp(Enc.Hi);
}

/// Join targets of one branch (Section IV-B): the scalar interval
/// variables it assigns, appended in order of first appearance. False
/// when the branch does something the join cannot undo.
bool collectAssignTargets(const Expr *E, std::vector<VarDecl *> &Targets) {
  const auto *B = dynCast<BinaryExpr>(ignoreParens(E));
  if (!B)
    return !dynCast<CallExpr>(ignoreParens(E)); // calls may have effects
  if (!B->isAssignment())
    return true;
  const auto *Ref = dynCast<DeclRefExpr>(ignoreParens(B->LHS));
  if (!Ref || !Ref->Decl)
    return false; // array/pointer stores: join unsupported (paper)
  if (!Ref->Decl->Ty->isFloating())
    return false; // integer or vector variables: unsupported
  if (std::find(Targets.begin(), Targets.end(), Ref->Decl) == Targets.end())
    Targets.push_back(Ref->Decl);
  return collectAssignTargets(B->RHS, Targets);
}

bool collectJoinTargets(const Stmt *S, std::vector<VarDecl *> &Targets) {
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->Body)
      if (!collectJoinTargets(Child, Targets))
        return false;
    return true;
  case Stmt::Kind::ExprStmt:
    return collectAssignTargets(cast<ExprStmt>(S)->E, Targets);
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    return collectJoinTargets(If->Then, Targets) &&
           (!If->Else || collectJoinTargets(If->Else, Targets));
  }
  case Stmt::Kind::Null:
    return true;
  default:
    return false; // loops, returns, declarations: bail out
  }
}

/// Attach the per-node facts at and below \p E / \p S / \p F.
void annotate(ASTContext &Ctx, Expr *E) {
  if (auto *L = dynCast<FloatLiteralExpr>(E))
    L->Enc = Ctx.create<LiteralEnclosure>(literalEnclosure(*L));
  auto *C = dynCast<CallExpr>(E);
  if (C && classifyCallee(C->Callee) == CalleeKind::MathFunction)
    C->Math = canonicalMathOp(C->Callee);
  forEachSubexpr(E, [&](Expr *Sub) { annotate(Ctx, Sub); });
}

void annotate(ASTContext &Ctx, Stmt *S) {
  forEachChild(
      S, [&](Expr *E) { annotate(Ctx, E); },
      [&](Stmt *Child) { annotate(Ctx, Child); });
  if (auto *If = dynCast<IfStmt>(S))
    If->JoinSafe = collectJoinTargets(If->Then, If->JoinTargets) &&
                   (!If->Else || collectJoinTargets(If->Else, If->JoinTargets));
}

void annotate(ASTContext &Ctx, FunctionDecl *F) {
  for (VarDecl *P : F->Params)
    if (P->HasTolerance)
      P->TolUp = toleranceUp(*P);
  annotate(Ctx, F->Body);
  auto *L = Ctx.create<FunctionLowering>();
  DiagnosticsEngine Warnings;
  L->Reductions = analyzeReductions(F, Warnings);
  L->ReductionWarnings = Warnings.diagnostics();
  for (ReductionSite &Site : L->Reductions.Sites) {
    Site.AccumLoop->Reductions.push_back(&Site);
    Site.Update->Reduction = &Site;
  }
  F->Lowering = L;
}

} // namespace

const char *igen::mathOpName(MathOp Op) {
  return MathNames[static_cast<size_t>(Op)];
}

void igen::annotateLowering(ASTContext &Ctx) {
  if (Ctx.Lowered)
    return;
  Ctx.Lowered = true;
  RoundUpwardScope Up; // the decimal enclosures round upward
  for (TopLevelItem &Item : Ctx.TU.Items)
    if (Item.Function && Item.Function->Body)
      annotate(Ctx, Item.Function);
}

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
#include "transform/IntervalTransform.h"

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

bool isFloatOrVec(const Type *T) { return T && T->isFloatingOrVector(); }

/// Value category of \p E, given its operands' (Section IV-B): floating
/// comparisons and logical operators over them are TBool, floating
/// values (and tolerance parameters' interval shadows) are intervals.
ValueCat categoryOf(const Expr *E) {
  if (const auto *P = dynCast<ParenExpr>(E))
    return P->Sub->Cat;
  if (const auto *B = dynCast<BinaryExpr>(E)) {
    if (B->isComparison())
      return isFloatOrVec(B->LHS->type()) || isFloatOrVec(B->RHS->type())
                 ? ValueCat::TBool
                 : ValueCat::Plain;
    if (B->O == BinaryExpr::Op::LAnd || B->O == BinaryExpr::Op::LOr)
      return B->LHS->Cat == ValueCat::TBool || B->RHS->Cat == ValueCat::TBool
                 ? ValueCat::TBool
                 : ValueCat::Plain;
  }
  if (const auto *U = dynCast<UnaryExpr>(E))
    if (U->O == UnaryExpr::Op::LogicalNot)
      return U->Sub->Cat == ValueCat::TBool ? ValueCat::TBool
                                            : ValueCat::Plain;
  const auto *Ref = dynCast<DeclRefExpr>(E);
  const bool Shadow = Ref && Ref->Decl && Ref->Decl->HasTolerance;
  return isFloatOrVec(E->type()) || Shadow ? ValueCat::Interval
                                           : ValueCat::Plain;
}

/// Attach the per-node facts at and below \p E / \p S / \p F.
void annotate(ASTContext &Ctx, Expr *E) {
  if (auto *L = dynCast<FloatLiteralExpr>(E))
    L->Enc = Ctx.create<LiteralEnclosure>(literalEnclosure(*L));
  auto *C = dynCast<CallExpr>(E);
  if (C && classifyCallee(C->Callee) == CalleeKind::MathFunction)
    C->Math = canonicalMathOp(C->Callee);
  forEachSubexpr(E, [&](Expr *Sub) { annotate(Ctx, Sub); });
  E->Cat = categoryOf(E);
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

/// The IGen C subset's rejections (Section IV), reported in the order
/// the C emitter reaches them, each use once.
class SubsetChecker {
public:
  SubsetChecker(DiagnosticsEngine &Diags, bool Dd) : Diags(Diags), Dd(Dd) {}

  void function(const FunctionDecl &F) {
    Fn = &F;
    stmt(F.Body);
  }

private:
  DiagnosticsEngine &Diags;
  const bool Dd;
  const FunctionDecl *Fn = nullptr;

  /// \p E is used where an interval is required.
  void value(const Expr *E) {
    if (E->Cat == ValueCat::TBool)
      Diags.error(SourceLoc(), "cannot use a comparison result as a value");
  }

  /// \p E flows into a non-floating destination, which takes neither an
  /// interval (\p What names the flow) nor a comparison result.
  void plain(const Expr *E, SourceLoc Loc, const char *What) {
    if (E->Cat == ValueCat::Interval)
      Diags.error(Loc, std::string(What) +
                           " is not supported in the IGen C subset");
    else
      value(E);
  }

  void expr(const Expr *E) {
    switch (E->kind()) {
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      expr(U->Sub);
      const bool IncDec =
          U->O == UnaryExpr::Op::PreInc || U->O == UnaryExpr::Op::PreDec ||
          U->O == UnaryExpr::Op::PostInc || U->O == UnaryExpr::Op::PostDec;
      if (IncDec && U->Sub->Cat == ValueCat::Interval)
        Diags.error(U->loc(), "++/-- on floating-point values is not "
                              "supported in the IGen C subset");
      return;
    }
    case Expr::Kind::Binary:
      return binary(cast<BinaryExpr>(E));
    case Expr::Kind::Conditional: {
      const auto *C = cast<ConditionalExpr>(E);
      expr(C->Cond);
      expr(C->Then);
      expr(C->Else);
      if (C->Cond->Cat == ValueCat::TBool)
        Diags.error(E->loc(),
                    "interval-dependent '?:' conditions are not supported; "
                    "rewrite as an if statement");
      value(C->Then);
      value(C->Else);
      return;
    }
    case Expr::Kind::Call: {
      const auto *C = cast<CallExpr>(E);
      if (C->Math == MathOp::None) {
        for (const Expr *A : C->Args) {
          expr(A);
          if (isFloatOrVec(A->type()))
            value(A);
        }
        return;
      }
      // Arguments past the operation's arity are never translated.
      const unsigned N = mathOpArity(C->Math);
      if (C->Args.size() < N) {
        Diags.error(C->loc(), "wrong number of arguments to '" + C->Callee +
                                  "'");
        return;
      }
      for (unsigned I = 0; I < N; ++I)
        expr(C->Args[I]);
      for (unsigned I = 0; I < N; ++I)
        value(C->Args[I]);
      return;
    }
    default:
      forEachSubexpr(E, [&](Expr *Sub) { expr(Sub); });
      return;
    }
  }

  void binary(const BinaryExpr *B) {
    if (B->isAssignment()) {
      lvalue(B->LHS);
      expr(B->RHS);
      if (isFloatOrVec(B->LHS->type()))
        value(B->RHS);
      else
        plain(B->RHS, B->loc(),
              B->O == BinaryExpr::Op::Assign
                  ? "assignment of a floating-point value to an integer"
                  : "compound assignment of a floating-point value to an "
                    "integer");
      return;
    }
    expr(B->LHS);
    expr(B->RHS);
    const bool FloatOp =
        isFloatOrVec(B->LHS->type()) || isFloatOrVec(B->RHS->type());
    if (!FloatOp)
      return;
    switch (B->O) {
    case BinaryExpr::Op::LT:
    case BinaryExpr::Op::GT:
    case BinaryExpr::Op::LE:
    case BinaryExpr::Op::GE:
    case BinaryExpr::Op::EQ:
    case BinaryExpr::Op::NE:
      if ((B->LHS->type() && B->LHS->type()->isSimdVector()) ||
          (B->RHS->type() && B->RHS->type()->isSimdVector()))
        Diags.error(B->loc(),
                    "comparisons of SIMD vectors are not supported");
      if (Dd && (B->O == BinaryExpr::Op::EQ || B->O == BinaryExpr::Op::NE))
        Diags.error(B->loc(),
                    "==/!= on double-double intervals is not supported");
      [[fallthrough]];
    case BinaryExpr::Op::Add:
    case BinaryExpr::Op::Sub:
    case BinaryExpr::Op::Mul:
    case BinaryExpr::Op::Div:
      value(B->LHS);
      value(B->RHS);
      return;
    default:
      return;
    }
  }

  /// Assignment targets: variables, array elements and dereferenced
  /// variables (index expressions innermost last, as emitted).
  void lvalue(const Expr *E) {
    const Expr *S = ignoreParens(E);
    if (dynCast<DeclRefExpr>(S))
      return;
    if (const auto *I = dynCast<IndexExpr>(S)) {
      expr(I->Idx);
      return lvalue(I->Base);
    }
    const auto *U = dynCast<UnaryExpr>(S);
    if (U && U->O == UnaryExpr::Op::Deref)
      return lvalue(U->Sub);
    Diags.error(S->loc(), "unsupported assignment target");
    expr(S);
  }

  void decl(const VarDecl *D) {
    if (!D->Init)
      return;
    expr(D->Init);
    if (isFloatOrVec(D->Ty))
      value(D->Init);
    else if (!D->Ty->isArray()) // array initializers: outside eval anyway
      plain(D->Init, D->Loc,
            "initialization of an integer from a floating-point value");
  }

  void stmt(const Stmt *S) {
    if (!S)
      return;
    switch (S->kind()) {
    case Stmt::Kind::DeclStmt:
      for (const VarDecl *D : cast<DeclStmt>(S)->Decls)
        decl(D);
      return;
    case Stmt::Kind::Do: {
      const auto *D = cast<DoStmt>(S);
      stmt(D->Body);
      expr(D->Cond);
      return;
    }
    case Stmt::Kind::Return: {
      const auto *R = cast<ReturnStmt>(S);
      if (!R->Value)
        return;
      expr(R->Value);
      if (isFloatOrVec(Fn->RetTy))
        value(R->Value);
      else
        plain(R->Value, R->loc(),
              "returning a floating-point value from a non-floating "
              "function");
      return;
    }
    default:
      forEachChild(
          S, [&](Expr *E) { expr(E); },
          [&](Stmt *C) { stmt(C); });
      return;
    }
  }
};

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

bool igen::checkLoweringSubset(ASTContext &Ctx, const TransformOptions &Opts,
                               DiagnosticsEngine &Diags) {
  annotateLowering(Ctx);
  unsigned char &Done =
      Ctx.SubsetChecked[Opts.Prec == TransformOptions::Precision::DoubleDouble];
  if (Done)
    return Done == 1;
  DiagnosticsEngine Errors;
  SubsetChecker Check(Errors,
                      Opts.Prec == TransformOptions::Precision::DoubleDouble);
  for (const TopLevelItem &Item : Ctx.TU.Items)
    if (Item.Function && Item.Function->Body)
      Check.function(*Item.Function);
  for (const Diagnostic &D : Errors.diagnostics())
    Diags.report(D.Severity, D.Loc, D.Message);
  Done = Errors.hasErrors() ? 2 : 1;
  return Done == 1;
}

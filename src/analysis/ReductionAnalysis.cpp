//===- ReductionAnalysis.cpp - Reduction detection ---------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ReductionAnalysis.h"

using namespace igen;

bool igen::exprStructurallyEqual(const Expr *A, const Expr *B) {
  A = ignoreParens(A);
  B = ignoreParens(B);
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case Expr::Kind::IntLiteral:
    return cast<IntLiteralExpr>(A)->Value == cast<IntLiteralExpr>(B)->Value;
  case Expr::Kind::FloatLiteral:
    return cast<FloatLiteralExpr>(A)->Value ==
           cast<FloatLiteralExpr>(B)->Value;
  case Expr::Kind::DeclRef:
    return cast<DeclRefExpr>(A)->Name == cast<DeclRefExpr>(B)->Name;
  case Expr::Kind::Unary: {
    const auto *UA = cast<UnaryExpr>(A), *UB = cast<UnaryExpr>(B);
    return UA->O == UB->O && exprStructurallyEqual(UA->Sub, UB->Sub);
  }
  case Expr::Kind::Binary: {
    const auto *BA = cast<BinaryExpr>(A), *BB = cast<BinaryExpr>(B);
    return BA->O == BB->O && exprStructurallyEqual(BA->LHS, BB->LHS) &&
           exprStructurallyEqual(BA->RHS, BB->RHS);
  }
  case Expr::Kind::Conditional: {
    const auto *CA = cast<ConditionalExpr>(A), *CB = cast<ConditionalExpr>(B);
    return exprStructurallyEqual(CA->Cond, CB->Cond) &&
           exprStructurallyEqual(CA->Then, CB->Then) &&
           exprStructurallyEqual(CA->Else, CB->Else);
  }
  case Expr::Kind::Call: {
    const auto *CA = cast<CallExpr>(A), *CB = cast<CallExpr>(B);
    if (CA->Callee != CB->Callee || CA->Args.size() != CB->Args.size())
      return false;
    for (size_t I = 0; I < CA->Args.size(); ++I)
      if (!exprStructurallyEqual(CA->Args[I], CB->Args[I]))
        return false;
    return true;
  }
  case Expr::Kind::Index: {
    const auto *IA = cast<IndexExpr>(A), *IB = cast<IndexExpr>(B);
    return exprStructurallyEqual(IA->Base, IB->Base) &&
           exprStructurallyEqual(IA->Idx, IB->Idx);
  }
  case Expr::Kind::Cast: {
    const auto *CA = cast<CastExpr>(A), *CB = cast<CastExpr>(B);
    return CA->To == CB->To && exprStructurallyEqual(CA->Sub, CB->Sub);
  }
  case Expr::Kind::Paren:
    return false; // unreachable: parens stripped above
  }
  return false;
}

bool igen::exprReferencesVar(const Expr *E, const std::string &Name) {
  if (const auto *Ref = dynCast<DeclRefExpr>(E))
    return Ref->Name == Name;
  bool Found = false;
  forEachSubexpr(E, [&](const Expr *Sub) {
    Found = Found || exprReferencesVar(Sub, Name);
  });
  return Found;
}

namespace {

/// Induction variable name of a for-loop (from `int i = 0` or `i = 0`).
std::string loopInductionVar(const ForStmt *For) {
  if (!For->Init)
    return {};
  if (const auto *DS = dynCast<DeclStmt>(For->Init)) {
    if (DS->Decls.size() == 1)
      return DS->Decls.front()->Name;
    return {};
  }
  if (const auto *ES = dynCast<ExprStmt>(For->Init)) {
    if (const auto *B = dynCast<BinaryExpr>(ES->E))
      if (B->O == BinaryExpr::Op::Assign)
        if (const auto *Ref = dynCast<DeclRefExpr>(ignoreParens(B->LHS)))
          return Ref->Name;
  }
  return {};
}

/// The variable at the root of an lvalue chain ("y" in y, y[i], *y).
const DeclRefExpr *rootVariable(const Expr *E) {
  E = ignoreParens(E);
  while (true) {
    if (const auto *I = dynCast<IndexExpr>(E)) {
      E = ignoreParens(I->Base);
      continue;
    }
    if (const auto *U = dynCast<UnaryExpr>(E)) {
      if (U->O == UnaryExpr::Op::Deref) {
        E = ignoreParens(U->Sub);
        continue;
      }
      return nullptr;
    }
    return dynCast<DeclRefExpr>(E);
  }
}

/// Flattens an additive expression tree into signed terms.
void flattenAdditive(Expr *E, bool Negated,
                     std::vector<ReductionTerm> &Out) {
  Expr *Stripped = ignoreParens(E);
  if (auto *B = dynCast<BinaryExpr>(Stripped)) {
    if (B->O == BinaryExpr::Op::Add) {
      flattenAdditive(B->LHS, Negated, Out);
      flattenAdditive(B->RHS, Negated, Out);
      return;
    }
    if (B->O == BinaryExpr::Op::Sub) {
      flattenAdditive(B->LHS, Negated, Out);
      flattenAdditive(B->RHS, !Negated, Out);
      return;
    }
  }
  Out.push_back(ReductionTerm{E, Negated});
}

/// True if \p S (excluding the statement \p Skip and the subtree
/// \p SkipSubtree) references variable \p Name.
bool stmtUsesVarExcluding(const Stmt *S, const std::string &Name,
                          const Stmt *Skip, const Stmt *SkipSubtree) {
  if (S == Skip || S == SkipSubtree)
    return false;
  bool Found = false;
  forEachChild(
      S, [&](const Expr *E) { Found = Found || exprReferencesVar(E, Name); },
      [&](const Stmt *Child) {
        Found = Found ||
                stmtUsesVarExcluding(Child, Name, Skip, SkipSubtree);
      });
  return Found;
}

class ReductionFinder {
public:
  ReductionFinder(DiagnosticsEngine &Diags, ReductionAnalysisResult &Result)
      : Diags(Diags), Result(Result) {}

  void visitStmt(Stmt *S) {
    switch (S->kind()) {
    case Stmt::Kind::Compound:
      for (Stmt *Child : cast<CompoundStmt>(S)->Body)
        visitStmt(Child);
      return;
    case Stmt::Kind::If: {
      auto *If = cast<IfStmt>(S);
      visitStmt(If->Then);
      if (If->Else)
        visitStmt(If->Else);
      return;
    }
    case Stmt::Kind::For: {
      auto *For = cast<ForStmt>(S);
      for (const std::string &Var : For->ReduceVars)
        ActiveVars.push_back(Var);
      LoopStack.push_back(For);
      size_t SitesBefore = Result.Sites.size();
      visitStmt(For->Body);
      LoopStack.pop_back();
      if (!For->ReduceVars.empty()) {
        if (Result.Sites.size() == SitesBefore)
          Diags.warning(For->loc(),
                        "#pragma igen reduce: no reduction statement "
                        "found in this loop nest");
        ActiveVars.resize(ActiveVars.size() - For->ReduceVars.size());
      }
      return;
    }
    case Stmt::Kind::While:
      visitStmt(cast<WhileStmt>(S)->Body);
      return;
    case Stmt::Kind::Do:
      visitStmt(cast<DoStmt>(S)->Body);
      return;
    case Stmt::Kind::ExprStmt:
      visitUpdate(cast<ExprStmt>(S));
      return;
    default:
      return;
    }
  }

private:
  void visitUpdate(ExprStmt *S) {
    if (ActiveVars.empty() || LoopStack.empty())
      return;
    auto *Assign = dynCast<BinaryExpr>(ignoreParens(S->E));
    if (!Assign)
      return;
    Expr *Target = Assign->LHS;
    // The accumulator holds an interval: integer targets stay plain.
    if (!Target->type() || !Target->type()->isFloating())
      return;
    const DeclRefExpr *Root = rootVariable(Target);
    if (!Root)
      return;
    bool IsActive = false;
    for (const std::string &Var : ActiveVars)
      if (Var == Root->Name)
        IsActive = true;
    if (!IsActive)
      return;

    std::vector<ReductionTerm> Terms;
    if (Assign->O == BinaryExpr::Op::AddAssign) {
      flattenAdditive(Assign->RHS, false, Terms);
    } else if (Assign->O == BinaryExpr::Op::SubAssign) {
      flattenAdditive(Assign->RHS, true, Terms);
    } else if (Assign->O == BinaryExpr::Op::Assign) {
      // target = <sum containing exactly one occurrence of target>.
      std::vector<ReductionTerm> All;
      flattenAdditive(Assign->RHS, false, All);
      int TargetHits = 0;
      for (const ReductionTerm &T : All) {
        if (!T.Negated && exprStructurallyEqual(T.Term, Target)) {
          ++TargetHits;
          continue;
        }
        Terms.push_back(T);
      }
      if (TargetHits != 1)
        return; // not of the form t = t + ...
      // The remaining terms must not mention the target variable again.
      for (const ReductionTerm &T : Terms)
        if (exprReferencesVar(T.Term, Root->Name))
          return;
    } else {
      return;
    }
    if (Terms.empty())
      return;

    // Accumulator level: walk outward while the target is invariant in
    // the loop (its induction variable does not appear in the target),
    // never beyond the loop carrying the pragma, and never past a loop
    // whose body uses the target outside the update statement itself
    // (hoisting the final reduction past such a use would be wrong).
    ForStmt *PragmaLoop = nullptr;
    for (ForStmt *L : LoopStack)
      for (const std::string &V : L->ReduceVars)
        if (V == Root->Name && !PragmaLoop)
          PragmaLoop = L;
    ForStmt *Accum = nullptr;
    for (auto It = LoopStack.rbegin(); It != LoopStack.rend(); ++It) {
      std::string IV = loopInductionVar(*It);
      if (IV.empty() || exprReferencesVar(Target, IV))
        break;
      if (Accum && stmtUsesVarExcluding(*It, Root->Name, S, Accum))
        break;
      Accum = *It;
      if (*It == PragmaLoop)
        break;
    }
    if (!Accum)
      return; // varies even in the innermost loop: no reduction carried

    ReductionSite Site;
    Site.Update = S;
    Site.Target = Target;
    Site.Terms = std::move(Terms);
    Site.AccumLoop = Accum;
    Site.Index = static_cast<unsigned>(Result.Sites.size());
    Result.Sites.push_back(std::move(Site));
  }

  DiagnosticsEngine &Diags;
  ReductionAnalysisResult &Result;
  std::vector<std::string> ActiveVars;
  std::vector<ForStmt *> LoopStack;
};

} // namespace

ReductionAnalysisResult igen::analyzeReductions(FunctionDecl *F,
                                                DiagnosticsEngine &Diags) {
  ReductionAnalysisResult Result;
  if (!F->Body)
    return Result;
  ReductionFinder Finder(Diags, Result);
  Finder.visitStmt(F->Body);
  return Result;
}

//===- ReductionAnalysis.h - Reduction detection ----------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Detection of reduction statements (Section VI-B). The paper runs Polly
/// on the LLVM-IR to find loop-carried self-dependences like
/// Stmt[i0,i1] -> Stmt[i0,i1+1] and maps them back to AST locations; here
/// the same information is computed directly on the AST: inside a loop
/// marked `#pragma igen reduce <vars>`, a statement
///
///     target = target + t1 [+ t2 ...]      (or +=, or t + target)
///
/// is a reduction when `target` is floating and names a pragma variable
/// (optionally indexed by expressions invariant in the carrying loop). The
/// accumulator is an interval sum, so an integer target stays a plain
/// update. The analysis
/// also computes the loop level at which the accumulator must be
/// initialized and reduced: the outermost loop of the enclosing nest in
/// which the target is still invariant (Polly's reduction dependence gives
/// the same level).
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_ANALYSIS_REDUCTIONANALYSIS_H
#define IGEN_ANALYSIS_REDUCTIONANALYSIS_H

#include "frontend/AST.h"
#include "support/Diagnostics.h"

#include <vector>

namespace igen {

/// One additive term of a detected reduction.
struct ReductionTerm {
  Expr *Term;
  bool Negated; ///< target = target - term
};

/// A detected reduction statement.
struct ReductionSite {
  /// The full update statement (an ExprStmt holding the assignment).
  ExprStmt *Update = nullptr;
  /// The accumulation target (a floating DeclRef or IndexExpr over the
  /// pragma var; integer targets are not reductions).
  Expr *Target = nullptr;
  /// The terms accumulated per iteration.
  std::vector<ReductionTerm> Terms;
  /// Loop around which the accumulator is initialized/reduced: the
  /// outermost loop in which Target is invariant.
  ForStmt *AccumLoop = nullptr;
  /// Position in ReductionAnalysisResult::Sites.
  unsigned Index = 0;
};

/// Result of analyzing one function, in source order. annotateLowering
/// (transform/LoweringRules.h) links each site from its update statement
/// and its accumulation loop.
struct ReductionAnalysisResult {
  std::vector<ReductionSite> Sites;
};

/// Structural equality of expressions (used to match the target on both
/// sides of the update and to test invariance).
bool exprStructurallyEqual(const Expr *A, const Expr *B);

/// True if \p E references the variable named \p Name.
bool exprReferencesVar(const Expr *E, const std::string &Name);

/// Runs reduction detection over \p F. Emits warnings for pragma loops in
/// which no reduction could be identified.
ReductionAnalysisResult analyzeReductions(FunctionDecl *F,
                                          DiagnosticsEngine &Diags);

} // namespace igen

#endif // IGEN_ANALYSIS_REDUCTIONANALYSIS_H

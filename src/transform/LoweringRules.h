//===- LoweringRules.h - Lowering decisions shared by both back ends -*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transformation rules that the C emitter (IntervalTransform.cpp)
/// and the serve evaluator (server/Evaluator.cpp) must agree on bit for
/// bit, each made in exactly one place:
///
///  * float literal enclosures (Section IV-B): integer-valued doubles
///    are points, others [prev, next]; the double-double target gets the
///    tight decimal enclosure; `0.25t` denotes the hull [-t, t] (IV-C);
///  * tolerance parameters widen by their spelling rounded upward (IV-C);
///  * per interval `if`, whether the join policy can run both branches
///    and hull them, and over which variables (IV-B);
///  * the canonical interval operation behind each libm callee;
///  * reduction sites (Section VI-B), found whatever the options because
///    a serve request can enable reductions on a cached program;
///  * each expression's value category: plain, interval or TBool (IV-B).
///
/// annotateLowering() computes all of it once per program, after Sema,
/// and stores it on the AST (Expr::Cat, FloatLiteralExpr::Enc, VarDecl::TolUp,
/// IfStmt::JoinTargets, CallExpr::Math, ForStmt::Reductions,
/// ExprStmt::Reduction, FunctionDecl::Lowering). Sema itself resolves
/// the remaining per-node facts: CallExpr::Fn and the frame slots.
/// checkLoweringSubset() then rejects what neither back end translates,
/// so both refuse a program with the same diagnostics and the back ends
/// themselves report no errors.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_TRANSFORM_LOWERINGRULES_H
#define IGEN_TRANSFORM_LOWERINGRULES_H

#include "analysis/ReductionAnalysis.h"
#include "frontend/AST.h"
#include "interval/DdInterval.h"
#include "interval/Interval.h"

#include <vector>

namespace igen {

struct TransformOptions;

/// Sound enclosures of one float literal, per target precision.
struct LiteralEnclosure {
  Interval F64;
  DdInterval Dd;
};

/// Canonical interval operation of a math-library callee: the `f`
/// suffix is dropped, fabs/fabsf are abs, fmin/fmax are min/max.
enum class MathOp : unsigned char {
  None, Sqrt, Abs, Floor, Ceil, Exp, Log, Sin, Cos, Tan, Atan, Asin, Acos,
  Min, Max,
};

/// Runtime name of \p Op ("sqrt", "abs", "min", ...): ia_<name>_f64.
const char *mathOpName(MathOp Op);
/// Arguments \p Op needs; a call with fewer is an error.
inline unsigned mathOpArity(MathOp Op) {
  return Op == MathOp::Min || Op == MathOp::Max ? 2 : 1;
}

/// Per-function facts.
struct FunctionLowering {
  ReductionAnalysisResult Reductions;
  /// The reduction analysis' warnings; the emitter reports them when the
  /// reduction transformation is enabled.
  std::vector<Diagnostic> ReductionWarnings;
};

/// Runs the rules above over every function of \p Ctx and stores the
/// results on the AST. Requires a successful Sema; runs once per
/// context (later calls return immediately).
void annotateLowering(ASTContext &Ctx);

/// The IGen C subset (Section IV), checked before either back end runs:
/// reports an error, in source order, for each
///  * comparison result (TBool) used as a value: an interval operand, a
///    `?:` side, or what an integer variable or non-floating function
///    takes;
///  * floating value assigned to, initializing or returned from an
///    integer (or other non-floating) variable or function;
///  * interval-dependent `?:` condition;
///  * `++`/`--` on a floating value;
///  * comparison of SIMD vectors;
///  * `==`/`!=` under the double-double precision;
///  * assignment target other than a variable, an array element or a
///    dereferenced variable;
///  * math call with fewer arguments than its operation takes.
/// Returns true when the program is in the subset. Runs annotateLowering()
/// first; runs once per context and target precision (later calls
/// return the first outcome without reporting again).
bool checkLoweringSubset(ASTContext &Ctx, const TransformOptions &Opts,
                         DiagnosticsEngine &Diags);

} // namespace igen

#endif // IGEN_TRANSFORM_LOWERINGRULES_H

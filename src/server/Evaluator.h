//===- Evaluator.h - Serve-mode interval evaluator --------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve-mode execution tier: runs a compiled program's functions
/// against src/interval/, with no C compiler round-trip. It executes the
/// *naive* translation — what the transform emits at `-O0 --target=ss` —
/// operation for operation: every float expression is an igen::Interval,
/// every float comparison a TBool.
///
/// Nothing is decided per request. compileToProgram lowers each function
/// once into flat, slot-resolved register code (transform/EvalCode.h):
/// operand categories, constant enclosures (Section IV-B), upward-widened
/// tolerance shadows (IV-C), join targets and reduction sites (VI-B) are
/// fixed there, and this executor is a single dispatch loop over typed
/// register files. The code is statically typed: every register's file
/// (interval, int, TBool, pointer) is its value's Sema type, as in the
/// emitted C, so no instruction inspects a category at run time. The
/// only per-variable run-time state beyond values is an int init flag on
/// the slots some read may reach before they are assigned. Because both paths compose the same pure interval
/// operations in the same order under FE_UPWARD, eval results are
/// bit-identical to AOT-compiled `-O0 --target=ss` output
/// (ExecServeCompareTest pins this).
///
/// Step weights: each instruction carries the number of evaluator steps
/// (one per expression and statement of the source, one per loop
/// iteration) that precede its effect, so OpsExecuted, the step limit
/// and the deadline-poll cadence count source-level work, not
/// instructions.
///
/// Lazy failures: anything outside the evaluable subset (double-double
/// precision, SIMD vectors, external calls, allocation) lowers to a Fail
/// instruction where evaluation would reach it, so it produces a *typed*
/// error — never an abort — and only when executed: an unsupported
/// construct on a branch that is not taken costs nothing. A read of an
/// unassigned variable is one too: a jump over a Fail that tests the
/// slot's init flag. A hostile or unlucky request cannot take the daemon
/// down.
///
/// The -O1 rewrites (sign-specialized mul/div, FMA fusion, CSE/hoist,
/// _fast poly kernels) are value-changing-but-still-sound, so the tier
/// deliberately does not replicate them; a request that asks for
/// opt_level > 0 is still answered with the -O0 semantics and says so in
/// the response.
///
/// All state is per call (registers live on a per-request stack); the
/// evaluator is re-entrant and safe to run concurrently on many threads
/// against one shared program.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_SERVER_EVALUATOR_H
#define IGEN_SERVER_EVALUATOR_H

#include "interval/Interval.h"
#include "transform/Pipeline.h"

#include <chrono>
#include <string>
#include <vector>

namespace igen {

class FunctionDecl;

namespace server {

/// One evaluation argument. Scalars carry an interval (points are
/// degenerate intervals); integer parameters take \c IntValue; array and
/// pointer parameters take \c Elements (mutated in place, returned to
/// the caller as an output).
struct EvalArg {
  enum class Kind { Scalar, Int, Array, Tolerance };
  Kind K = Kind::Scalar;
  Interval Scalar = Interval::fromPoint(0.0);
  long long IntValue = 0;
  /// Tolerance parameters keep their scalar double in the signature;
  /// the evaluator applies the declared +-tol widening itself.
  double Point = 0.0;
  std::vector<Interval> Elements;
};

/// Typed evaluation failure. Codes are stable protocol vocabulary:
///   unsupported        construct outside the evaluable subset
///   unknown-branch     a branch condition evaluated to TBool::Unknown
///   bad-argument       argument count/shape does not match the signature
///   no-such-function   the cached program has no such defined function
///   step-limit         runaway loop tripped the per-request step budget
///   recursion-limit    call depth exceeded the per-request bound
///   int-div-zero       integer division or remainder by zero
///   deadline-exceeded  the request's wall-clock deadline passed; checked
///                      cooperatively at loop back-edges and call entries,
///                      so the worker survives and keeps serving
struct EvalError {
  std::string Code;
  std::string Message;
};

struct EvalResult {
  bool Ok = false;
  EvalError Error; ///< set when !Ok

  bool HasReturn = false;
  bool ReturnIsInt = false;
  Interval Return = Interval::fromPoint(0.0);
  long long ReturnInt = 0;
  /// Post-call contents of every Array argument, in argument order.
  std::vector<std::vector<Interval>> ArrayOutputs;
  /// Evaluator steps executed: one per expression and statement of the
  /// source evaluated, one per loop iteration (profile counter food).
  unsigned long long OpsExecuted = 0;
};

/// Per-request knobs, mirroring the IGEN_* environment the AOT runtime
/// reads globally — isolated here so concurrent tenants cannot leak
/// options into each other.
struct EvalOptions {
  /// Branch policy for TBool conditions: false = exception semantics
  /// (Unknown is a typed error), true = join where safe.
  bool JoinBranches = false;
  /// Harden prologue: poison (return whole line) instead of evaluating
  /// when the FP environment was found dirty on entry. The caller does
  /// the actual sentinel check; this just tells the evaluator the
  /// verdict.
  bool PoisonedEntry = false;
  /// Reduction transformation (loops marked `#pragma igen reduce`).
  bool EnableReductions = false;
  /// Abort evaluation after this many executed steps.
  unsigned long long StepLimit = 50u * 1000u * 1000u;
  /// Maximum user-function call depth.
  unsigned MaxCallDepth = 128;
  /// Wall-clock deadline (monotonic). When HasDeadline, the evaluator
  /// polls the clock at call entries and (amortized, every 512 steps),
  /// yielding a typed "deadline-exceeded" error. Disabled requests pay one integer compare per op, nothing
  /// more — measured in bench/serve_bench's deadline rows.
  bool HasDeadline = false;
  std::chrono::steady_clock::time_point Deadline{};
};

/// Evaluates \p Function from \p Prog on \p Args. The caller must hold a
/// sound upward-rounding scope (RoundUpwardScope) for the duration of
/// the call; the serve layer pairs that with its fenv sentinel.
EvalResult evalFunction(const InMemoryProgram &Prog,
                        const std::string &Function,
                        const std::vector<EvalArg> &Args,
                        const EvalOptions &Opts);

} // namespace server
} // namespace igen

#endif // IGEN_SERVER_EVALUATOR_H

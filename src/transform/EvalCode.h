//===- EvalCode.h - Flat register code for the serve evaluator --*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve tier's interval code: each defined function of an f64
/// program, lowered once at compile time (compileToProgram) into a flat
/// vector of slot-resolved instructions over typed register files, and
/// executed per request by server/Evaluator.cpp's register loop.
///
/// The code is the `-O0 --target=ss` translation, operation for
/// operation, so served values are bit-identical to the AOT artifact.
/// Every decision a node-by-node walk of the AST would make per
/// execution is made here once: the category of each operand (interval,
/// int, pointer, TBool), literal enclosures and int-to-interval
/// constants (a per-function constant pool, copied into the frame at
/// call entry), tolerance widening (per parameter), join targets
/// (save/swap/hull over IfStmt::JoinTargets) and reduction sites
/// (accumulator registers by ReductionSite::Index). Control flow is
/// explicit jumps.
///
/// Three things stay run-time, because a request may change them: the
/// options (join policy and reductions are flag bits that branch
/// instructions test), the step accounting, and failures.
///
///  * Steps: every instruction carries in W the number of evaluator
///    steps (one per expression and statement visited, one per loop
///    iteration) that precede its effect, so the executor reports the
///    same `ops` count, trips the step limit on the same request and
///    polls the deadline on the same cadence as a node-by-node walk.
///  * Failures: a construct the tier cannot run lowers to a Fail
///    instruction at the point where the walk would have failed, so it
///    fails only if executed.
///
/// Every register's category is fixed here, from the Sema type of the
/// value it holds, as the C emitter fixes the C type of every value:
/// floating values are intervals, float comparisons TBools, integers and
/// pointers plain. checkLoweringSubset() rejects what would mix them (a
/// floating value or a comparison result flowing into an integer). The
/// one property a variable's category cannot carry is whether it has
/// been assigned: a slot read before it is definitely assigned gets an
/// int init flag, cleared by its declaration and set by each store, and
/// each such read tests it (JmpNZ over a Fail), raising the failure the
/// reading context names.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_TRANSFORM_EVALCODE_H
#define IGEN_TRANSFORM_EVALCODE_H

#include "interval/Interval.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace igen {

class ASTContext;

namespace evalcode {

/// Value categories of the -O0 translation (plus None: no value).
enum class Kind : uint8_t { None, Int, Iv, Tb, Ptr };

/// Comparison sub-opcodes (Insn::X of IntCmp, IvCmp, JmpCmp).
enum class Cmp : uint8_t { LT, GT, LE, GE, EQ, NE };

/// Integer sub-opcodes (Insn::X of IntBin).
enum class IntOp : uint8_t { Add, Sub, Mul, Div, Rem, Shl, Shr, And, Or, Xor };

/// Run-time option bits tested by JmpUnlessFlag.
enum Flag : uint8_t { FlagJoin = 0, FlagReduce = 1 };

/// Condition sites named in "interval condition is unknown at <where>".
enum class Where : uint8_t { If, For, While, DoWhile, Conditional, Logical };
const char *whereName(Where W);

enum class Op : uint8_t {
  // Control. Jump targets are instruction indices.
  Step,          ///< steps only
  Jmp,           ///< goto A
  JmpZ,          ///< if I[B] == 0 goto A
  JmpNZ,         ///< if I[B] != 0 goto A
  JmpCmp,        ///< if I[B] <X> I[C] goto A
  CondTb,        ///< cvt2bool(T[B]) at C; if result == X goto A
  IfTb,          ///< T[B]: True falls through, False goto A, Unknown goto C
                 ///< under the join flag (C != 0), else fails
  JmpUnlessFlag, ///< if option bit X is clear goto A
  Call,          ///< call site A
  Ret,           ///< return register A of the function's Ret category
  RetNone,       ///< return without a value
  Fail,          ///< fail with failure A
  // Intervals.
  IvMov, IvAdd, IvSub, IvMul, IvDiv, IvNeg, IvMin, IvMax,
  IvMath,        ///< V[A] = <MathOp X>(V[B])
  IvF32,         ///< V[A] = V[B] rounded outward to the float grid
  IntToIv,       ///< V[A] = [I[B], I[B]]
  IvCmp,         ///< T[A] = V[B] <X> V[C]
  IvSwap,        ///< swap V[A], V[B]
  IvHull,        ///< V[A] = hull(V[A], V[B])
  // Integers.
  IntMov, IntAdd, IntSub, IntMul,
  IntBin,        ///< I[A] = I[B] <IntOp X> I[C] (checked division)
  IntCmp,        ///< I[A] = I[B] <X> I[C]
  IntNeg, IntLNot, IntBitNot,
  IntTrunc,      ///< I[A] = (X ? unsigned : int)I[B]
  IntIncDec,     ///< X bit0 pre, bit1 increment; I[A] = result, var I[B]
  IntNZ,         ///< I[A] = I[B] != 0
  // TBools.
  TbMov, TbNot, TbAnd, TbOr,
  IntToTb,       ///< T[A] = bool2tb(I[B])
  TbCvt,         ///< I[A] = cvt2bool(T[B]) at where C
  // Pointers and memory.
  PtrMov,
  PtrOff,        ///< P[A] = P[B] +/- I[C] (X: 1 subtracts)
  Index,         ///< V[A] = P[B][I[C]], bounds-checked
  Lea,           ///< I[A] = P[B].Off + I[C], bounds-checked
  LoadAt,        ///< V[A] = P[B].Base[I[C]]
  StoreAt,       ///< P[A].Base[I[B]] = V[C]
  AddrIv,        ///< P[A] = &V[B] (one element)
  AddrAt,        ///< P[A] = &P[B].Base[I[C]] (one element)
  ArrDecl,       ///< P[A] = zeroed local array of I[B] elements
  // Reductions.
  AccInit, AccAdd, AccReduce, ///< Acc[A] / V[B]; AccAdd X negates
};

struct Insn {
  Op O;
  uint8_t X = 0;
  uint16_t W = 0; ///< evaluator steps before this instruction's effect
  uint32_t A = 0, B = 0, C = 0;
};

/// A typed failure: code and message of the EvalError it raises.
struct Failure {
  std::string Code;
  std::string Message;
};

/// Failures every module can raise, at fixed indices below the
/// module's own (EvalModule::failure).
enum FixedFailure : uint32_t {
  FailUninitRead,     ///< read of uninitialized variable
  FailPtrAssign,      ///< pointer assignment
  FailIntAssign,      ///< invalid integer assignment
  FailTbAsValue,      ///< comparison result as a value
  FailNotScalar,      ///< pointer (or nothing) as a scalar
  FailBadCondition,   ///< non-condition used as a condition operand
  FailCondValue,      ///< invalid condition value
  FailCastOperand,    ///< invalid cast operand
  FailNegOperand,     ///< invalid operand to unary '-'
  FailNotOperand,     ///< invalid operand to '!'
  FailIncDec,         ///< ++/-- on a non-integer
  FailAddrOf,         ///< '&' on a non-double variable
  FailIntArith,       ///< invalid integer arithmetic operands
  FailDivZero,        ///< integer division by zero
  FailRemZero,        ///< integer remainder by zero
  FailJoinTarget,     ///< join target not an initialized interval
  FailSubscript,      ///< invalid array subscript
  FailNonDoubleIndex, ///< subscript of a non-double array
  FailDerefNonPtr,    ///< dereference of a non-pointer
  FailNonDoubleDeref, ///< dereference of a non-double pointer
  FailUndeclaredStore,///< assignment to an undeclared name
  FailStoreTarget,    ///< unsupported assignment target
  FailBitOperands,    ///< invalid bitwise/shift operands
  FailCmpOperands,    ///< invalid comparison operands
  FailBitNot,         ///< invalid operand to '~'
  FailIntrinsic,      ///< SIMD intrinsic call
  FailAllocation,     ///< allocation call
  FailPtrCast,        ///< pointer cast
  FailIvToInt,        ///< interval cast to an integer
  FailLocalArray,     ///< local array of non-doubles or 2-D
  FailArrayInit,      ///< array initializer
  FailSimdLocal,      ///< SIMD vector local
  FailPtrInit,        ///< invalid pointer initializer
  FailIntInit,        ///< invalid integer initializer
  FailIntStore,       ///< int stored to a double array element
  NumFixedFailures
};

/// One parameter: what argument it takes and where it lands.
struct ParamSlot {
  /// Vector and other non-scalar parameters take nothing: binding fails.
  enum class Takes : uint8_t { Iv, Int, Ptr, Tolerance, Vector, Other };
  Takes T = Takes::Iv;
  uint32_t Reg = 0; ///< in the file of kind()
  double TolUp = 0.0;
  std::string Name; ///< for the bad-argument message

  /// The register file of the parameter variable (None: it has none).
  Kind kind() const;
  /// Whether an argument of category \p K (an interval that is a point
  /// when \p Point) fails to bind; the failure lands in \p Why.
  bool rejects(Kind K, bool Point, Failure &Why) const;
};

/// One call of a user function: the callee and the caller's argument
/// and result registers.
struct CallSite {
  uint32_t Callee = 0;
  std::vector<uint32_t> Args; ///< in the file each parameter takes
  uint32_t Dst = 0; ///< caller register of the callee's Ret category
};

/// The code of one function and its frame shape.
struct FunctionCode {
  std::string Name;
  /// The category of the returned value, from the return type: Iv,
  /// Int, Ptr, or None (void). Falling off the end of a function with a
  /// value fails.
  Kind Ret = Kind::None;
  std::vector<ParamSlot> Params;
  std::vector<Insn> Code;
  /// Initial image of the leading interval and int registers: the
  /// constant pool (literal enclosures, ints and their interval
  /// conversions), then zeros: the join-mode and init flags and the
  /// variables that have init flags.
  std::vector<Interval> IvInit;
  std::vector<long long> IntInit;
  uint32_t NumIv = 0, NumInt = 0, NumTb = 0, NumPtr = 0, NumAcc = 0;
  /// Local arrays or flagged pointers: pointer registers start null.
  bool ZeroPtr = false;
};

/// Every defined function of one program, in translation-unit order.
struct EvalModule {
  std::vector<FunctionCode> Fns;
  std::vector<CallSite> Calls;
  /// Failures naming a function or callee, from NumFixedFailures on.
  std::vector<Failure> Failures;

  /// The function a request names (the first definition), or null.
  const FunctionCode *find(const std::string &Name) const;
  const Failure &failure(uint32_t Idx) const;
};

/// Lowers every defined function of a Sema'd, annotateLowering'd
/// context. Never fails: constructs outside the tier become Fail
/// instructions.
std::unique_ptr<EvalModule> lowerForEval(const ASTContext &Ctx);

} // namespace evalcode
} // namespace igen

#endif // IGEN_TRANSFORM_EVALCODE_H

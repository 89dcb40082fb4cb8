//===- Evaluator.cpp - AST-walking interval evaluator ------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Bit-identity contract: this walker executes the `-O0 --target=ss`
// emission of transform/IntervalTransform.cpp operation for operation.
// The decisions both back ends must share are made once, at compile
// time, by transform/LoweringRules.h and read here from the AST:
// literal enclosures (FloatLiteralExpr::Enc), tolerance widening
// (VarDecl::TolUp), join safety and targets (IfStmt::JoinTargets),
// math callees (CallExpr::Math), user callees (CallExpr::Fn), reduction
// sites (ForStmt::Reductions, ExprStmt::Reduction) and frame slots
// (VarDecl::Slot, FunctionDecl::NumSlots). The emitter's compile-time
// constant folding needs no mirroring: it evaluates the same pure
// interval ops under FE_UPWARD that run here, and %.17g materialization
// round-trips, so folded and interpreted constants carry identical bits.
//
//===----------------------------------------------------------------------===//

#include "server/Evaluator.h"

#include "frontend/AST.h"
#include "frontend/Sema.h"
#include "interval/Accumulator.h"
#include "interval/Elementary.h"
#include "interval/Interval32.h"
#include "interval/TBool.h"
#include "transform/LoweringRules.h"

#include <cstdint>

using namespace igen;
using namespace igen::server;

namespace {

/// Thrown to unwind out of any depth of interpretation; converted to a
/// typed EvalResult at the evalFunction boundary.
struct EvalAbort {
  EvalError E;
};

[[noreturn]] void fail(std::string Code, std::string Msg) {
  throw EvalAbort{{std::move(Code), std::move(Msg)}};
}

/// A pointer value: base buffer plus a signed offset, with the extent
/// carried along so the interpreter can bounds-check accesses the AOT
/// code would execute blind. (Out-of-range access is undefined behavior
/// in the compiled artifact; in the daemon it must be a typed error,
/// not a memory-safety hole.)
struct PtrVal {
  Interval *Base = nullptr;
  long long Size = 0;
  long long Off = 0;
};

struct Value {
  enum class K { None, Int, Iv, TB, Ptr };
  K Kind = K::None;
  long long I = 0;
  Interval V = Interval::fromPoint(0.0);
  TBool B = TBool::False;
  PtrVal P;

  static Value makeInt(long long X) {
    Value R;
    R.Kind = K::Int;
    R.I = X;
    return R;
  }
  static Value makeIv(const Interval &X) {
    Value R;
    R.Kind = K::Iv;
    R.V = X;
    return R;
  }
  static Value makeTB(TBool X) {
    Value R;
    R.Kind = K::TB;
    R.B = X;
    return R;
  }
  static Value makePtr(PtrVal X) {
    Value R;
    R.Kind = K::Ptr;
    R.P = X;
    return R;
  }
};

struct Flow {
  enum class K { Normal, Break, Continue, Return };
  K Kind = K::Normal;
  Value Ret; ///< K::Return with a value expression
  bool HasRet = false;
};

/// An addressable storage slot, for lvalues.
struct LValue {
  enum class K { Slot, Element };
  K Kind = K::Slot;
  Value *Slot = nullptr;     ///< variable slot
  Interval *Element = nullptr; ///< bounds-checked array element
};

/// One call's storage. Slots (one per parameter and local, indexed by
/// VarDecl::Slot) and, with reductions on, Accs (one per reduction site,
/// indexed by ReductionSite::Index) are sized at entry and never
/// resized, so AddrOf pointers stay valid. LocalArrays grows, but moving
/// an element vector keeps its buffer.
struct Frame {
  std::vector<Value> Slots;
  std::vector<SumAccumulatorF64> Accs;
  std::vector<std::vector<Interval>> LocalArrays;
};

class Interp {
public:
  Interp(const InMemoryProgram &Prog, const EvalOptions &Opts)
      : Prog(Prog), Opts(Opts) {
    if (Opts.HasDeadline)
      NextDeadlineCheck = DeadlineCheckEvery;
  }

  EvalResult run(const std::string &Function,
                 const std::vector<EvalArg> &Args);

private:
  const InMemoryProgram &Prog;
  const EvalOptions &Opts;
  unsigned long long Steps = 0;
  unsigned Depth = 0;

  /// Amortization interval for wall-clock deadline polls: frequent
  /// enough that a hung loop is cancelled within microseconds of the
  /// deadline, rare enough that the clock read vanishes in the noise.
  static constexpr unsigned long long DeadlineCheckEvery = 512;
  /// Next Steps value at which to poll the clock; ~0 when no deadline
  /// is set, so disabled requests pay one always-false compare per op.
  unsigned long long NextDeadlineCheck = ~0ull;
  /// Call-entry polls are strided too: deep recursion that makes
  /// little Steps progress still reaches a cancellation point every
  /// DeadlineCheckCalls frames, while a short request's single
  /// top-level call never pays a clock read at all.
  static constexpr unsigned DeadlineCheckCalls = 64;
  unsigned CallsSincePoll = 0;

  void checkDeadlineNow() {
    NextDeadlineCheck = Steps + DeadlineCheckEvery;
    if (std::chrono::steady_clock::now() >= Opts.Deadline)
      fail("deadline-exceeded",
           "evaluation exceeded the request's wall-clock deadline");
  }

  void step(unsigned long long N = 1) {
    Steps += N;
    if (Steps > Opts.StepLimit)
      fail("step-limit", "evaluation exceeded the per-request step budget");
    if (Steps >= NextDeadlineCheck)
      checkDeadlineNow();
  }

  // --- value categories ---

  /// The emitter's TBool category: float comparisons, logical ops over
  /// them, and their negations.
  static bool isTBoolExpr(const Expr *E);

  Interval asInterval(const Value &V) {
    switch (V.Kind) {
    case Value::K::Iv:
      return V.V;
    case Value::K::Int:
      // ia_cst_f64((double)(i))
      return Interval::fromPoint(static_cast<double>(V.I));
    case Value::K::TB:
      fail("unsupported", "cannot use a comparison result as a value");
    default:
      fail("unsupported", "cannot use a pointer as a scalar value");
    }
  }

  TBool asTBool(const Value &V) {
    if (V.Kind == Value::K::TB)
      return V.B;
    if (V.Kind == Value::K::Int)
      return tboolFromBool(V.I != 0); // ia_bool2tb
    fail("unsupported", "cannot use this value as a condition");
  }

  bool cvtCond(const Value &V, const char *Where) {
    if (V.Kind == Value::K::Int)
      return V.I != 0;
    if (V.Kind == Value::K::TB) {
      // ia_cvt2bool_tb, with Unknown surfaced as a typed error instead
      // of the process-global UnknownBranchHandler (which a concurrent
      // daemon cannot safely retarget per request).
      if (V.B == TBool::Unknown)
        fail("unknown-branch",
             std::string("interval condition is unknown at ") + Where);
      return V.B == TBool::True;
    }
    fail("unsupported", "invalid condition value");
  }

  Interval &element(const PtrVal &P, long long Idx) {
    long long At = P.Off + Idx;
    if (!P.Base || At < 0 || At >= P.Size)
      fail("out-of-bounds",
           "array access at index " + std::to_string(At) +
               " outside buffer of " + std::to_string(P.Size));
    return P.Base[At];
  }

  // --- expressions ---

  Value evalExpr(const Expr *E, Frame &F);
  Value evalUnary(const UnaryExpr *U, Frame &F);
  Value evalBinary(const BinaryExpr *B, Frame &F);
  Value evalCall(const CallExpr *C, Frame &F);
  Value evalCast(const CastExpr *C, Frame &F);
  LValue evalLValue(const Expr *E, Frame &F);
  Value loadLValue(const LValue &L, const Type *Ty);
  void storeLValue(const LValue &L, const Value &V);

  // --- statements ---

  Flow execStmt(const Stmt *S, Frame &F);
  Flow execCompound(const CompoundStmt *S, Frame &F);
  Flow execIf(const IfStmt *S, Frame &F);
  Flow execFor(const ForStmt *S, Frame &F);
  void execDecl(const VarDecl *D, Frame &F);

  Value callFunction(const FunctionDecl *Fn, std::vector<Value> Args);
};

bool Interp::isTBoolExpr(const Expr *E) {
  E = ignoreParens(E);
  if (const auto *B = dynCast<BinaryExpr>(E)) {
    bool FloatOp =
        (B->LHS->type() && B->LHS->type()->isFloatingOrVector()) ||
        (B->RHS->type() && B->RHS->type()->isFloatingOrVector());
    switch (B->O) {
    case BinaryExpr::Op::LT:
    case BinaryExpr::Op::GT:
    case BinaryExpr::Op::LE:
    case BinaryExpr::Op::GE:
    case BinaryExpr::Op::EQ:
    case BinaryExpr::Op::NE:
      return FloatOp;
    case BinaryExpr::Op::LAnd:
    case BinaryExpr::Op::LOr:
      return isTBoolExpr(B->LHS) || isTBoolExpr(B->RHS);
    default:
      return false;
    }
  }
  if (const auto *U = dynCast<UnaryExpr>(E))
    if (U->O == UnaryExpr::Op::LogicalNot)
      return isTBoolExpr(U->Sub);
  return false;
}

Value Interp::evalExpr(const Expr *E, Frame &F) {
  step();
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
    return Value::makeInt(cast<IntLiteralExpr>(E)->Value);
  case Expr::Kind::FloatLiteral:
    return Value::makeIv(cast<FloatLiteralExpr>(E)->Enc->F64);
  case Expr::Kind::DeclRef: {
    const auto *Ref = cast<DeclRefExpr>(E);
    if (!Ref->Decl)
      fail("unsupported", "reference to undeclared name '" + Ref->Name +
                              "'");
    return F.Slots[Ref->Decl->Slot];
  }
  case Expr::Kind::Paren:
    return evalExpr(cast<ParenExpr>(E)->Sub, F);
  case Expr::Kind::Unary:
    return evalUnary(cast<UnaryExpr>(E), F);
  case Expr::Kind::Binary:
    return evalBinary(cast<BinaryExpr>(E), F);
  case Expr::Kind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    if (isTBoolExpr(C->Cond))
      fail("unsupported", "interval-dependent '?:' conditions are not "
                          "supported; rewrite as an if statement");
    Value Cond = evalExpr(C->Cond, F);
    // Plain condition: C evaluates only the taken side, and the emitted
    // `(c ? a : b)` does the same.
    const Expr *Side = cvtCond(Cond, "?:") ? C->Then : C->Else;
    Value V = evalExpr(Side, F);
    if (E->type() && E->type()->isFloatingOrVector())
      return Value::makeIv(asInterval(V));
    return V;
  }
  case Expr::Kind::Call:
    return evalCall(cast<CallExpr>(E), F);
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    Value Base = evalExpr(I->Base, F);
    Value Idx = evalExpr(I->Idx, F);
    if (Base.Kind != Value::K::Ptr || Idx.Kind != Value::K::Int)
      fail("unsupported", "invalid array subscript");
    if (!(E->type() && E->type()->isFloating()))
      fail("unsupported", "only double arrays are supported by eval");
    return Value::makeIv(element(Base.P, Idx.I));
  }
  case Expr::Kind::Cast:
    return evalCast(cast<CastExpr>(E), F);
  }
  fail("unsupported", "unsupported expression kind");
}

Value Interp::evalUnary(const UnaryExpr *U, Frame &F) {
  switch (U->O) {
  case UnaryExpr::Op::Neg: {
    Value Sub = evalExpr(U->Sub, F);
    if (Sub.Kind == Value::K::Iv)
      return Value::makeIv(iNeg(Sub.V));
    if (Sub.Kind == Value::K::Int)
      return Value::makeInt(-Sub.I);
    fail("unsupported", "invalid operand to unary '-'");
  }
  case UnaryExpr::Op::Plus:
    return evalExpr(U->Sub, F);
  case UnaryExpr::Op::LogicalNot: {
    Value Sub = evalExpr(U->Sub, F);
    if (Sub.Kind == Value::K::TB)
      return Value::makeTB(tboolNot(Sub.B));
    if (Sub.Kind == Value::K::Int)
      return Value::makeInt(Sub.I == 0 ? 1 : 0);
    fail("unsupported", "invalid operand to '!'");
  }
  case UnaryExpr::Op::BitNot: {
    Value Sub = evalExpr(U->Sub, F);
    if (Sub.Kind != Value::K::Int)
      fail("unsupported", "invalid operand to '~'");
    return Value::makeInt(~Sub.I);
  }
  case UnaryExpr::Op::PreInc:
  case UnaryExpr::Op::PreDec:
  case UnaryExpr::Op::PostInc:
  case UnaryExpr::Op::PostDec: {
    LValue L = evalLValue(U->Sub, F);
    if (L.Kind != LValue::K::Slot || L.Slot->Kind != Value::K::Int)
      fail("unsupported", "++/-- on floating-point values is not "
                          "supported in the IGen C subset");
    bool Pre = U->O == UnaryExpr::Op::PreInc ||
               U->O == UnaryExpr::Op::PreDec;
    bool Inc = U->O == UnaryExpr::Op::PreInc ||
               U->O == UnaryExpr::Op::PostInc;
    long long Old = L.Slot->I;
    L.Slot->I = Inc ? Old + 1 : Old - 1;
    return Value::makeInt(Pre ? L.Slot->I : Old);
  }
  case UnaryExpr::Op::Deref: {
    Value Sub = evalExpr(U->Sub, F);
    if (Sub.Kind != Value::K::Ptr)
      fail("unsupported", "dereference of a non-pointer value");
    if (!(U->type() && U->type()->isFloating()))
      fail("unsupported", "only double pointers are supported by eval");
    return Value::makeIv(element(Sub.P, 0));
  }
  case UnaryExpr::Op::AddrOf: {
    LValue L = evalLValue(U->Sub, F);
    PtrVal P;
    if (L.Kind == LValue::K::Element) {
      P.Base = L.Element;
      P.Size = 1; // a borrowed one-element view; AOT has the same UB edge
    } else {
      if (L.Slot->Kind != Value::K::Iv)
        fail("unsupported", "'&' is only supported on double variables");
      P.Base = &L.Slot->V;
      P.Size = 1;
    }
    return Value::makePtr(P);
  }
  }
  fail("unsupported", "unsupported unary operator");
}

Value Interp::evalBinary(const BinaryExpr *B, Frame &F) {
  if (B->isAssignment()) {
    // Lvalue first, then RHS, as the emitted assignment.
    LValue L = evalLValue(B->LHS, F);
    Value RHS = evalExpr(B->RHS, F);
    bool IntervalTarget =
        B->LHS->type() && B->LHS->type()->isFloatingOrVector();
    if (!IntervalTarget) {
      // Plain (integer) compound assignment.
      Value Cur = loadLValue(L, B->LHS->type());
      if (Cur.Kind == Value::K::Ptr || RHS.Kind == Value::K::Ptr)
        fail("unsupported", "pointer assignment is not supported by eval");
      long long A = Cur.I, Bv = RHS.I, R = 0;
      switch (B->O) {
      case BinaryExpr::Op::Assign:
        R = RHS.Kind == Value::K::Int ? Bv : 0;
        if (RHS.Kind != Value::K::Int)
          fail("unsupported", "invalid integer assignment");
        break;
      case BinaryExpr::Op::AddAssign: R = A + Bv; break;
      case BinaryExpr::Op::SubAssign: R = A - Bv; break;
      case BinaryExpr::Op::MulAssign: R = A * Bv; break;
      case BinaryExpr::Op::DivAssign:
        if (Bv == 0)
          fail("int-div-zero", "integer division by zero");
        R = A / Bv;
        break;
      default:
        fail("unsupported", "unsupported assignment operator");
      }
      Value Out = Value::makeInt(R);
      storeLValue(L, Out);
      return Out;
    }
    Interval Value_ = asInterval(RHS);
    if (B->O != BinaryExpr::Op::Assign) {
      Interval Cur = asInterval(loadLValue(L, B->LHS->type()));
      switch (B->O) {
      case BinaryExpr::Op::AddAssign: Value_ = iAdd(Cur, Value_); break;
      case BinaryExpr::Op::SubAssign: Value_ = iSub(Cur, Value_); break;
      case BinaryExpr::Op::MulAssign: Value_ = iMul(Cur, Value_); break;
      case BinaryExpr::Op::DivAssign: Value_ = iDiv(Cur, Value_); break;
      default:
        fail("unsupported", "unsupported assignment operator");
      }
    }
    Value Out = Value::makeIv(Value_);
    storeLValue(L, Out);
    return Out;
  }

  bool FloatOp =
      (B->LHS->type() && B->LHS->type()->isFloatingOrVector()) ||
      (B->RHS->type() && B->RHS->type()->isFloatingOrVector());

  switch (B->O) {
  case BinaryExpr::Op::Add:
  case BinaryExpr::Op::Sub:
  case BinaryExpr::Op::Mul:
  case BinaryExpr::Op::Div: {
    Value L = evalExpr(B->LHS, F);
    Value R = evalExpr(B->RHS, F);
    if (!FloatOp) {
      // Pointer arithmetic stays plain C.
      if (L.Kind == Value::K::Ptr && R.Kind == Value::K::Int &&
          (B->O == BinaryExpr::Op::Add || B->O == BinaryExpr::Op::Sub)) {
        PtrVal P = L.P;
        P.Off += B->O == BinaryExpr::Op::Add ? R.I : -R.I;
        return Value::makePtr(P);
      }
      if (L.Kind != Value::K::Int || R.Kind != Value::K::Int)
        fail("unsupported", "invalid integer arithmetic operands");
      switch (B->O) {
      case BinaryExpr::Op::Add: return Value::makeInt(L.I + R.I);
      case BinaryExpr::Op::Sub: return Value::makeInt(L.I - R.I);
      case BinaryExpr::Op::Mul: return Value::makeInt(L.I * R.I);
      default:
        if (R.I == 0)
          fail("int-div-zero", "integer division by zero");
        return Value::makeInt(L.I / R.I);
      }
    }
    Interval A = asInterval(L), Bv = asInterval(R);
    switch (B->O) {
    case BinaryExpr::Op::Add: return Value::makeIv(iAdd(A, Bv));
    case BinaryExpr::Op::Sub: return Value::makeIv(iSub(A, Bv));
    case BinaryExpr::Op::Mul: return Value::makeIv(iMul(A, Bv));
    default: return Value::makeIv(iDiv(A, Bv));
    }
  }
  case BinaryExpr::Op::LT:
  case BinaryExpr::Op::GT:
  case BinaryExpr::Op::LE:
  case BinaryExpr::Op::GE:
  case BinaryExpr::Op::EQ:
  case BinaryExpr::Op::NE: {
    Value L = evalExpr(B->LHS, F);
    Value R = evalExpr(B->RHS, F);
    if (!FloatOp) {
      if (L.Kind != Value::K::Int || R.Kind != Value::K::Int)
        fail("unsupported", "invalid comparison operands");
      bool Res;
      switch (B->O) {
      case BinaryExpr::Op::LT: Res = L.I < R.I; break;
      case BinaryExpr::Op::GT: Res = L.I > R.I; break;
      case BinaryExpr::Op::LE: Res = L.I <= R.I; break;
      case BinaryExpr::Op::GE: Res = L.I >= R.I; break;
      case BinaryExpr::Op::EQ: Res = L.I == R.I; break;
      default: Res = L.I != R.I; break;
      }
      return Value::makeInt(Res ? 1 : 0);
    }
    if ((B->LHS->type() && B->LHS->type()->isSimdVector()) ||
        (B->RHS->type() && B->RHS->type()->isSimdVector()))
      fail("unsupported", "comparisons of SIMD vectors are not supported");
    Interval A = asInterval(L), Bv = asInterval(R);
    switch (B->O) {
    case BinaryExpr::Op::LT: return Value::makeTB(iCmpLT(A, Bv));
    case BinaryExpr::Op::GT: return Value::makeTB(iCmpGT(A, Bv));
    case BinaryExpr::Op::LE: return Value::makeTB(iCmpLE(A, Bv));
    case BinaryExpr::Op::GE: return Value::makeTB(iCmpGE(A, Bv));
    case BinaryExpr::Op::EQ: return Value::makeTB(iCmpEQ(A, Bv));
    default: return Value::makeTB(iCmpNE(A, Bv));
    }
  }
  case BinaryExpr::Op::LAnd:
  case BinaryExpr::Op::LOr: {
    if (isTBoolExpr(B->LHS) || isTBoolExpr(B->RHS)) {
      // ia_and_tb/ia_or_tb are plain calls: both operands evaluate.
      TBool A = asTBool(evalExpr(B->LHS, F));
      TBool Bb = asTBool(evalExpr(B->RHS, F));
      return Value::makeTB(B->O == BinaryExpr::Op::LAnd ? tboolAnd(A, Bb)
                                                        : tboolOr(A, Bb));
    }
    // Plain: C short-circuit semantics.
    Value L = evalExpr(B->LHS, F);
    bool LB = cvtCond(L, "&&/||");
    if (B->O == BinaryExpr::Op::LAnd && !LB)
      return Value::makeInt(0);
    if (B->O == BinaryExpr::Op::LOr && LB)
      return Value::makeInt(1);
    return Value::makeInt(cvtCond(evalExpr(B->RHS, F), "&&/||") ? 1 : 0);
  }
  default: {
    Value L = evalExpr(B->LHS, F);
    Value R = evalExpr(B->RHS, F);
    if (L.Kind != Value::K::Int || R.Kind != Value::K::Int)
      fail("unsupported", "invalid bitwise/shift operands");
    switch (B->O) {
    case BinaryExpr::Op::Rem:
      if (R.I == 0)
        fail("int-div-zero", "integer remainder by zero");
      return Value::makeInt(L.I % R.I);
    case BinaryExpr::Op::Shl: return Value::makeInt(L.I << (R.I & 63));
    case BinaryExpr::Op::Shr: return Value::makeInt(L.I >> (R.I & 63));
    case BinaryExpr::Op::BitAnd: return Value::makeInt(L.I & R.I);
    case BinaryExpr::Op::BitOr: return Value::makeInt(L.I | R.I);
    default: return Value::makeInt(L.I ^ R.I);
    }
  }
  }
}

Value Interp::evalCast(const CastExpr *C, Frame &F) {
  Value Sub = evalExpr(C->Sub, F);
  const Type *From = C->Sub->type();
  if (C->To->isPointer()) {
    if (Sub.Kind == Value::K::Ptr)
      return Sub;
    fail("unsupported", "pointer casts are not supported by eval");
  }
  if (C->To->isFloating()) {
    if (Sub.Kind == Value::K::Iv) {
      if (C->To->kind() == Type::Kind::Float && From &&
          From->kind() == Type::Kind::Double)
        // ia_f32cast_f64: round outward to the float grid.
        return Value::makeIv(Interval32::fromInterval(Sub.V).widen());
      return Sub; // float<->double widening: intervals already double
    }
    if (Sub.Kind == Value::K::Int)
      return Value::makeIv(
          Interval::fromPoint(static_cast<double>(Sub.I)));
    fail("unsupported", "invalid cast operand");
  }
  // Integer casts: emitted C applies the target width; mirror int.
  if (Sub.Kind != Value::K::Int)
    fail("unsupported", "cannot cast an interval to an integer");
  if (C->To->kind() == Type::Kind::Int)
    return Value::makeInt(static_cast<int>(Sub.I));
  if (C->To->kind() == Type::Kind::UInt)
    return Value::makeInt(
        static_cast<long long>(static_cast<unsigned>(Sub.I)));
  return Sub;
}

Value Interp::evalCall(const CallExpr *C, Frame &F) {
  CalleeKind CK = classifyCallee(C->Callee);

  if (CK == CalleeKind::MathFunction) {
    if (C->Args.size() < mathOpArity(C->Math))
      fail("bad-argument",
           "wrong number of arguments to '" + C->Callee + "'");
    Interval Arg = asInterval(evalExpr(C->Args[0], F));
    // -O0 semantics: always the libm-backed kernels, never the _fast
    // polynomial variants (those are -O1 rewrites).
    switch (C->Math) {
    case MathOp::Min:
    case MathOp::Max: {
      Interval Arg2 = asInterval(evalExpr(C->Args[1], F));
      return Value::makeIv(C->Math == MathOp::Min ? iMin(Arg, Arg2)
                                                  : iMax(Arg, Arg2));
    }
    case MathOp::Sqrt: return Value::makeIv(iSqrt(Arg));
    case MathOp::Abs: return Value::makeIv(iAbs(Arg));
    case MathOp::Floor: return Value::makeIv(iFloor(Arg));
    case MathOp::Ceil: return Value::makeIv(iCeil(Arg));
    case MathOp::Exp: return Value::makeIv(iExp(Arg));
    case MathOp::Log: return Value::makeIv(iLog(Arg));
    case MathOp::Sin: return Value::makeIv(iSin(Arg));
    case MathOp::Cos: return Value::makeIv(iCos(Arg));
    case MathOp::Tan: return Value::makeIv(iTan(Arg));
    case MathOp::Atan: return Value::makeIv(iAtan(Arg));
    case MathOp::Asin: return Value::makeIv(iAsin(Arg));
    case MathOp::Acos: return Value::makeIv(iAcos(Arg));
    case MathOp::None: break;
    }
    fail("unsupported",
         "math function '" + C->Callee + "' has no interval kernel");
  }

  if (CK == CalleeKind::Intrinsic)
    fail("unsupported",
         "SIMD intrinsics are not supported by the eval tier; "
         "compile ahead of time for vector kernels");
  if (CK == CalleeKind::Allocation)
    fail("unsupported", "allocation calls are not supported by eval");

  const FunctionDecl *Callee = C->Fn;
  if (!Callee || !Callee->Body)
    fail("unsupported", "call to external function '" + C->Callee +
                            "' cannot be evaluated in-process");
  if (Callee->Params.size() != C->Args.size())
    fail("bad-argument",
         "wrong number of arguments to '" + C->Callee + "'");
  std::vector<Value> Args;
  Args.reserve(C->Args.size());
  for (size_t I = 0; I < C->Args.size(); ++I) {
    Value A = evalExpr(C->Args[I], F);
    const Type *ArgTy = C->Args[I]->type();
    if (ArgTy && ArgTy->isFloatingOrVector())
      A = Value::makeIv(asInterval(A));
    Args.push_back(std::move(A));
  }
  return callFunction(Callee, std::move(Args));
}

LValue Interp::evalLValue(const Expr *E, Frame &F) {
  E = ignoreParens(E);
  switch (E->kind()) {
  case Expr::Kind::DeclRef: {
    const auto *Ref = cast<DeclRefExpr>(E);
    if (!Ref->Decl)
      fail("unsupported", "assignment to undeclared name");
    LValue L;
    L.Kind = LValue::K::Slot;
    L.Slot = &F.Slots[Ref->Decl->Slot];
    return L;
  }
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    Value Base = evalExpr(I->Base, F);
    Value Idx = evalExpr(I->Idx, F);
    if (Base.Kind != Value::K::Ptr || Idx.Kind != Value::K::Int)
      fail("unsupported", "invalid array subscript");
    LValue L;
    L.Kind = LValue::K::Element;
    L.Element = &element(Base.P, Idx.I);
    return L;
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->O == UnaryExpr::Op::Deref) {
      Value Sub = evalExpr(U->Sub, F);
      if (Sub.Kind != Value::K::Ptr)
        fail("unsupported", "dereference of a non-pointer value");
      LValue L;
      L.Kind = LValue::K::Element;
      L.Element = &element(Sub.P, 0);
      return L;
    }
    break;
  }
  default:
    break;
  }
  fail("unsupported", "unsupported assignment target");
}

Value Interp::loadLValue(const LValue &L, const Type *Ty) {
  if (L.Kind == LValue::K::Element)
    return Value::makeIv(*L.Element);
  if (L.Slot->Kind == Value::K::None) {
    // Reading an uninitialized variable is UB in the AOT artifact; give
    // compound assignment a deterministic typed error instead.
    if (Ty && Ty->isFloating())
      fail("unsupported", "read of uninitialized variable");
    fail("unsupported", "read of uninitialized variable");
  }
  return *L.Slot;
}

void Interp::storeLValue(const LValue &L, const Value &V) {
  if (L.Kind == LValue::K::Element) {
    if (V.Kind != Value::K::Iv)
      fail("unsupported", "invalid store to a double array element");
    *L.Element = V.V;
    return;
  }
  *L.Slot = V;
}

// --- statements ---

void Interp::execDecl(const VarDecl *D, Frame &F) {
  Value *S = &F.Slots[D->Slot];
  if (D->Ty->isArray()) {
    const Type *Elem = D->Ty->element();
    if (!Elem->isFloating() || Elem->isArray())
      fail("unsupported", "only 1-D double local arrays are supported");
    F.LocalArrays.emplace_back(
        static_cast<size_t>(D->Ty->arraySize()),
        Interval::fromPoint(0.0));
    PtrVal P;
    P.Base = F.LocalArrays.back().data();
    P.Size = static_cast<long long>(D->Ty->arraySize());
    *S = Value::makePtr(P);
    if (D->Init)
      fail("unsupported", "array initializers are not supported");
    return;
  }
  if (D->Ty->isSimdVector())
    fail("unsupported", "SIMD vector locals are not supported by eval");
  if (!D->Init) {
    *S = Value();
    if (D->Ty->isInteger())
      S->Kind = Value::K::None; // uninitialized until first store
    return;
  }
  Value Init = evalExpr(D->Init, F);
  if (D->Ty->isFloatingOrVector())
    *S = Value::makeIv(asInterval(Init));
  else if (D->Ty->isPointer()) {
    if (Init.Kind != Value::K::Ptr)
      fail("unsupported", "invalid pointer initializer");
    *S = Init;
  } else {
    if (Init.Kind != Value::K::Int)
      fail("unsupported", "invalid integer initializer");
    *S = Init;
  }
}

Flow Interp::execIf(const IfStmt *S, Frame &F) {
  if (!isTBoolExpr(S->Cond)) {
    Value Cond = evalExpr(S->Cond, F);
    if (cvtCond(Cond, "if"))
      return execStmt(S->Then, F);
    if (S->Else)
      return execStmt(S->Else, F);
    return Flow();
  }

  TBool Cond = asTBool(evalExpr(S->Cond, F));
  if (!Opts.JoinBranches || !S->JoinSafe) {
    // Exception policy: ia_cvt2bool_tb, which may signal.
    if (Cond == TBool::Unknown)
      fail("unknown-branch", "interval branch condition is unknown");
    if (Cond == TBool::True)
      return execStmt(S->Then, F);
    if (S->Else)
      return execStmt(S->Else, F);
    return Flow();
  }

  // Join mode: run both branches on the unknown state and hull the
  // results.
  if (Cond == TBool::True)
    return execStmt(S->Then, F);
  if (Cond == TBool::False) {
    if (S->Else)
      return execStmt(S->Else, F);
    return Flow();
  }
  // Saved holds the entry state, then (swapped) the Then results.
  std::vector<Interval> Saved;
  Saved.reserve(S->JoinTargets.size());
  for (const VarDecl *V : S->JoinTargets) {
    const Value &Slot = F.Slots[V->Slot];
    if (Slot.Kind != Value::K::Iv)
      fail("unsupported", "join target is not an initialized interval");
    Saved.push_back(Slot.V);
  }
  execStmt(S->Then, F); // join-safe bodies cannot break/return
  for (size_t I = 0; I < Saved.size(); ++I)
    std::swap(F.Slots[S->JoinTargets[I]->Slot].V, Saved[I]);
  if (S->Else)
    execStmt(S->Else, F);
  for (size_t I = 0; I < Saved.size(); ++I) {
    Interval &V = F.Slots[S->JoinTargets[I]->Slot].V;
    V = iHull(V, Saved[I]);
  }
  return Flow();
}

Flow Interp::execFor(const ForStmt *S, Frame &F) {
  if (S->Init) {
    if (const auto *DS = dynCast<DeclStmt>(S->Init)) {
      for (const VarDecl *D : DS->Decls)
        execDecl(D, F);
    } else if (const auto *ES = dynCast<ExprStmt>(S->Init)) {
      evalExpr(ES->E, F);
    }
  }

  // Reduction accumulators: initialize with the current target
  // enclosure before the loop, feed terms at the update statement,
  // finalize after the loop.
  const bool Reduce = Opts.EnableReductions && !S->Reductions.empty();
  if (Reduce)
    for (const ReductionSite *Site : S->Reductions)
      F.Accs[Site->Index].init(asInterval(evalExpr(Site->Target, F)));

  while (true) {
    step();
    if (S->Cond) {
      Value Cond = evalExpr(S->Cond, F);
      if (!cvtCond(Cond, "for"))
        break;
    }
    Flow Fl = execStmt(S->Body, F);
    // A return inside the loop skips the reduce finalization, exactly
    // as the emitted code jumps past the post-loop assignment.
    if (Fl.Kind == Flow::K::Return)
      return Fl;
    if (Fl.Kind == Flow::K::Break)
      break;
    if (S->Inc)
      evalExpr(S->Inc, F);
  }
  if (Reduce)
    for (const ReductionSite *Site : S->Reductions)
      storeLValue(evalLValue(Site->Target, F),
                  Value::makeIv(F.Accs[Site->Index].reduce()));
  return Flow();
}

Flow Interp::execCompound(const CompoundStmt *S, Frame &F) {
  for (const Stmt *Child : S->Body) {
    Flow Fl = execStmt(Child, F);
    if (Fl.Kind != Flow::K::Normal)
      return Fl;
  }
  return Flow();
}

Flow Interp::execStmt(const Stmt *S, Frame &F) {
  step();
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    return execCompound(cast<CompoundStmt>(S), F);
  case Stmt::Kind::DeclStmt:
    for (const VarDecl *D : cast<DeclStmt>(S)->Decls)
      execDecl(D, F);
    return Flow();
  case Stmt::Kind::ExprStmt: {
    const auto *ES = cast<ExprStmt>(S);
    if (ES->Reduction && Opts.EnableReductions) {
      // Reduction update: feed each term into the accumulator instead
      // of executing the assignment. The update only runs inside its
      // accumulation loop, which initialized the accumulator.
      SumAccumulatorF64 &Acc = F.Accs[ES->Reduction->Index];
      for (const ReductionTerm &T : ES->Reduction->Terms) {
        Interval Term = asInterval(evalExpr(T.Term, F));
        if (T.Negated)
          Term = iNeg(Term);
        Acc.accumulate(Term);
      }
      return Flow();
    }
    evalExpr(ES->E, F);
    return Flow();
  }
  case Stmt::Kind::If:
    return execIf(cast<IfStmt>(S), F);
  case Stmt::Kind::For:
    return execFor(cast<ForStmt>(S), F);
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    while (true) {
      step();
      if (!cvtCond(evalExpr(W->Cond, F), "while"))
        break;
      Flow Fl = execStmt(W->Body, F);
      if (Fl.Kind == Flow::K::Return)
        return Fl;
      if (Fl.Kind == Flow::K::Break)
        break;
    }
    return Flow();
  }
  case Stmt::Kind::Do: {
    const auto *D = cast<DoStmt>(S);
    while (true) {
      step();
      Flow Fl = execStmt(D->Body, F);
      if (Fl.Kind == Flow::K::Return)
        return Fl;
      if (Fl.Kind == Flow::K::Break)
        break;
      if (!cvtCond(evalExpr(D->Cond, F), "do-while"))
        break;
    }
    return Flow();
  }
  case Stmt::Kind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    Flow Fl;
    Fl.Kind = Flow::K::Return;
    if (R->Value) {
      Value V = evalExpr(R->Value, F);
      bool WantInterval =
          R->Value->type() && R->Value->type()->isFloatingOrVector();
      Fl.Ret = WantInterval ? Value::makeIv(asInterval(V)) : V;
      Fl.HasRet = true;
    }
    return Fl;
  }
  case Stmt::Kind::Break: {
    Flow Fl;
    Fl.Kind = Flow::K::Break;
    return Fl;
  }
  case Stmt::Kind::Continue: {
    Flow Fl;
    Fl.Kind = Flow::K::Continue;
    return Fl;
  }
  case Stmt::Kind::Null:
    return Flow();
  }
  return Flow();
}

Value Interp::callFunction(const FunctionDecl *Fn, std::vector<Value> Args) {
  if (++Depth > Opts.MaxCallDepth) {
    --Depth;
    fail("recursion-limit", "user-function call depth exceeded");
  }
  // Strided deadline poll at call entry: recursion that makes little
  // per-frame progress still hits a cancellation point every few
  // frames without taxing call-light requests with a clock read.
  if (Opts.HasDeadline && ++CallsSincePoll >= DeadlineCheckCalls) {
    CallsSincePoll = 0;
    checkDeadlineNow();
  }
  // Harden prologue: a dirty FP environment on entry poisons an
  // interval-returning function to the whole line. The serve layer
  // already repaired the environment; we only honor the verdict here,
  // and only at the outermost frame (callees run under the now-sound
  // environment, like AOT code whose igen_fenv_check repaired on the
  // way in).
  if (Opts.PoisonedEntry && Depth == 1 && Fn->RetTy->isFloating()) {
    --Depth;
    return Value::makeIv(Interval::entire());
  }

  Frame F;
  F.Slots.resize(Fn->NumSlots);
  if (Opts.EnableReductions)
    F.Accs.resize(Fn->Lowering->Reductions.Sites.size());
  for (size_t I = 0; I < Fn->Params.size(); ++I) {
    const VarDecl *P = Fn->Params[I];
    Value *S = &F.Slots[P->Slot];
    Value &A = Args[I];
    if (P->HasTolerance) {
      // The emitted body only reads the shadow _a = ia_set_tol(a, TolUp),
      // so the slot holds the widened interval directly.
      if (A.Kind != Value::K::Iv || !A.V.isPoint())
        fail("bad-argument", "tolerance parameter '" + P->Name +
                                 "' takes a point value");
      *S = Value::makeIv(iSetTol(A.V.Hi, P->TolUp));
      continue;
    }
    if (P->Ty->isSimdVector())
      fail("unsupported", "SIMD vector parameters are not supported");
    if (P->Ty->isFloating()) {
      if (A.Kind != Value::K::Iv)
        fail("bad-argument",
             "parameter '" + P->Name + "' takes an interval");
      *S = A;
    } else if (P->Ty->isInteger()) {
      if (A.Kind != Value::K::Int)
        fail("bad-argument",
             "parameter '" + P->Name + "' takes an integer");
      *S = A;
    } else if (P->Ty->isPointer() || P->Ty->isArray()) {
      if (A.Kind != Value::K::Ptr)
        fail("bad-argument",
             "parameter '" + P->Name + "' takes an array");
      *S = A;
    } else {
      fail("unsupported", "unsupported parameter type for '" + P->Name +
                              "'");
    }
  }

  Flow Fl = execCompound(Fn->Body, F);
  --Depth;

  if (Fl.Kind == Flow::K::Return && Fl.HasRet)
    return Fl.Ret;
  if (Fn->RetTy->isFloating())
    // Falling off the end of a value-returning function is UB in C;
    // surface it as a typed error instead of an indeterminate value.
    fail("unsupported",
         "function '" + Fn->Name + "' returned without a value");
  return Value();
}

EvalResult Interp::run(const std::string &Function,
                       const std::vector<EvalArg> &Args) {
  EvalResult R;
  try {
    const FunctionDecl *Fn = Prog.Ast->TU.findFunction(Function);
    if (!Fn || !Fn->Body)
      fail("no-such-function",
           "no defined function '" + Function + "' in this program");
    if (Fn->Params.size() != Args.size())
      fail("bad-argument",
           "function '" + Function + "' takes " +
               std::to_string(Fn->Params.size()) + " arguments, got " +
               std::to_string(Args.size()));

    // Marshal the wire arguments; array arguments are copied into the
    // result up front and mutated in place, so outputs fall out for
    // free and the caller's request object stays untouched.
    std::vector<Value> CallArgs;
    std::vector<size_t> ArrayIndex(Args.size(), SIZE_MAX);
    for (size_t I = 0; I < Args.size(); ++I) {
      const EvalArg &A = Args[I];
      switch (A.K) {
      case EvalArg::Kind::Scalar:
        CallArgs.push_back(Value::makeIv(A.Scalar));
        break;
      case EvalArg::Kind::Int:
        CallArgs.push_back(Value::makeInt(A.IntValue));
        break;
      case EvalArg::Kind::Tolerance:
        CallArgs.push_back(
            Value::makeIv(Interval::fromPoint(A.Point)));
        break;
      case EvalArg::Kind::Array: {
        ArrayIndex[I] = R.ArrayOutputs.size();
        R.ArrayOutputs.push_back(A.Elements);
        PtrVal P;
        P.Base = R.ArrayOutputs.back().data();
        P.Size = static_cast<long long>(R.ArrayOutputs.back().size());
        CallArgs.push_back(Value::makePtr(P));
        break;
      }
      }
    }
    // ArrayOutputs must not reallocate once pointers are taken.
    for (size_t I = 0; I < Args.size(); ++I)
      if (ArrayIndex[I] != SIZE_MAX)
        CallArgs[I].P.Base = R.ArrayOutputs[ArrayIndex[I]].data();

    Value Ret = callFunction(Fn, std::move(CallArgs));
    if (Ret.Kind == Value::K::Iv) {
      R.HasReturn = true;
      R.Return = Ret.V;
    } else if (Ret.Kind == Value::K::Int) {
      R.HasReturn = true;
      R.ReturnIsInt = true;
      R.ReturnInt = Ret.I;
    }
    R.Ok = true;
  } catch (const EvalAbort &A) {
    R.Ok = false;
    R.Error = A.E;
    R.ArrayOutputs.clear();
  }
  R.OpsExecuted = Steps;
  return R;
}

} // namespace

EvalResult igen::server::evalFunction(const InMemoryProgram &Prog,
                                      const std::string &Function,
                                      const std::vector<EvalArg> &Args,
                                      const EvalOptions &Opts) {
  if (!Prog.Ast) {
    EvalResult R;
    R.Error = {"unsupported", "program has no retained AST"};
    return R;
  }
  if (Prog.Opts.Prec == TransformOptions::Precision::DoubleDouble) {
    EvalResult R;
    R.Error = {"unsupported",
               "double-double programs are not supported by the eval "
               "tier; use the emitted C artifact"};
    return R;
  }
  return Interp(Prog, Opts).run(Function, Args);
}

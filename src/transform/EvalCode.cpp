//===- EvalCode.cpp - Flat register code for the serve evaluator ------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The lowering mirrors the evaluation order of the -O0 translation node
// by node: operands left to right, the lvalue of an assignment before
// its right side, a step counted on entry to every expression and
// statement (and per loop iteration) except the function body itself,
// the lvalue of an assignment and a for-init. Counted steps accumulate
// in Pending until the next instruction carries them (Insn::W); a label
// flushes them with a Step instruction, so every path into a label
// arrives with nothing pending.
//
// Registers: each variable owns one register for its life (Iv, Int or
// Ptr by declared type), plus an init flag when some read of it may come
// before it is definitely assigned. Constants and the join-mode and init
// flags sit at the start of their files, so a call copies one short
// image into the frame. Temporaries are recycled per statement.
//
//===----------------------------------------------------------------------===//

#include "transform/EvalCode.h"

#include "frontend/AST.h"
#include "frontend/Sema.h"
#include "transform/LoweringRules.h"

#include <algorithm>
#include <bitset>
#include <cstring>
#include <iterator>

using namespace igen;
using namespace igen::evalcode;

const char *igen::evalcode::whereName(Where W) {
  switch (W) {
  case Where::If: return "if";
  case Where::For: return "for";
  case Where::While: return "while";
  case Where::DoWhile: return "do-while";
  case Where::Conditional: return "?:";
  case Where::Logical: return "&&/||";
  }
  return "branch";
}

const Failure &EvalModule::failure(uint32_t Idx) const {
  // In FixedFailure order.
  static const Failure Fixed[] = {
      {"unsupported", "read of uninitialized variable"},
      {"unsupported", "pointer assignment is not supported by eval"},
      {"unsupported", "invalid integer assignment"},
      {"unsupported", "cannot use a comparison result as a value"},
      {"unsupported", "cannot use a pointer as a scalar value"},
      {"unsupported", "cannot use this value as a condition"},
      {"unsupported", "invalid condition value"},
      {"unsupported", "invalid cast operand"},
      {"unsupported", "invalid operand to unary '-'"},
      {"unsupported", "invalid operand to '!'"},
      {"unsupported", "++/-- on floating-point values is not supported in "
                      "the IGen C subset"},
      {"unsupported", "'&' is only supported on double variables"},
      {"unsupported", "invalid integer arithmetic operands"},
      {"int-div-zero", "integer division by zero"},
      {"int-div-zero", "integer remainder by zero"},
      {"unsupported", "join target is not an initialized interval"},
      {"unsupported", "invalid array subscript"},
      {"unsupported", "only double arrays are supported by eval"},
      {"unsupported", "dereference of a non-pointer value"},
      {"unsupported", "only double pointers are supported by eval"},
      {"unsupported", "assignment to undeclared name"},
      {"unsupported", "unsupported assignment target"},
      {"unsupported", "invalid bitwise/shift operands"},
      {"unsupported", "invalid comparison operands"},
      {"unsupported", "invalid operand to '~'"},
      {"unsupported", "SIMD intrinsics are not supported by the eval tier; "
                      "compile ahead of time for vector kernels"},
      {"unsupported", "allocation calls are not supported by eval"},
      {"unsupported", "pointer casts are not supported by eval"},
      {"unsupported", "cannot cast an interval to an integer"},
      {"unsupported", "only 1-D double local arrays are supported"},
      {"unsupported", "array initializers are not supported"},
      {"unsupported", "SIMD vector locals are not supported by eval"},
      {"unsupported", "invalid pointer initializer"},
      {"unsupported", "invalid integer initializer"},
      {"unsupported", "invalid store to a double array element"},
  };
  static_assert(std::size(Fixed) == NumFixedFailures);
  return Idx < NumFixedFailures ? Fixed[Idx]
                                : Failures[Idx - NumFixedFailures];
}

const FunctionCode *EvalModule::find(const std::string &Name) const {
  for (const FunctionCode &F : Fns)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

Kind ParamSlot::kind() const {
  switch (T) {
  case Takes::Iv:
  case Takes::Tolerance: return Kind::Iv;
  case Takes::Int: return Kind::Int;
  case Takes::Ptr: return Kind::Ptr;
  default: return Kind::None;
  }
}

bool ParamSlot::rejects(Kind K, bool Point, Failure &Why) const {
  if (T == Takes::Vector)
    Why = {"unsupported", "SIMD vector parameters are not supported"};
  else if (T == Takes::Other)
    Why = {"unsupported", "unsupported parameter type for '" + Name + "'"};
  else if (T == Takes::Tolerance && (K != Kind::Iv || !Point))
    Why = {"bad-argument",
           "tolerance parameter '" + Name + "' takes a point value"};
  else if (K != kind())
    Why = {"bad-argument", "parameter '" + Name + "' takes " +
                               (T == Takes::Iv    ? "an interval"
                                : T == Takes::Int ? "an integer"
                                                  : "an array")};
  else
    return false;
  return true;
}

namespace {

constexpr uint32_t NoReg = ~0u;

bool isFloatOrVec(const Type *T) { return T && T->isFloatingOrVector(); }

/// The TBool value category (LoweringRules.h).
bool isTBool(const Expr *E) { return E->Cat == ValueCat::TBool; }

Cmp cmpOf(BinaryExpr::Op O) {
  switch (O) {
  case BinaryExpr::Op::LT: return Cmp::LT;
  case BinaryExpr::Op::GT: return Cmp::GT;
  case BinaryExpr::Op::LE: return Cmp::LE;
  case BinaryExpr::Op::GE: return Cmp::GE;
  case BinaryExpr::Op::EQ: return Cmp::EQ;
  default: return Cmp::NE;
  }
}

Cmp negate(Cmp C) {
  switch (C) {
  case Cmp::LT: return Cmp::GE;
  case Cmp::GT: return Cmp::LE;
  case Cmp::LE: return Cmp::GT;
  case Cmp::GE: return Cmp::LT;
  case Cmp::EQ: return Cmp::NE;
  case Cmp::NE: return Cmp::EQ;
  }
  return C;
}

IntOp intOpOf(BinaryExpr::Op O) {
  switch (O) {
  case BinaryExpr::Op::Add: case BinaryExpr::Op::AddAssign: return IntOp::Add;
  case BinaryExpr::Op::Sub: case BinaryExpr::Op::SubAssign: return IntOp::Sub;
  case BinaryExpr::Op::Mul: case BinaryExpr::Op::MulAssign: return IntOp::Mul;
  case BinaryExpr::Op::Div: case BinaryExpr::Op::DivAssign: return IntOp::Div;
  case BinaryExpr::Op::Rem: return IntOp::Rem;
  case BinaryExpr::Op::Shl: return IntOp::Shl;
  case BinaryExpr::Op::Shr: return IntOp::Shr;
  case BinaryExpr::Op::BitAnd: return IntOp::And;
  case BinaryExpr::Op::BitOr: return IntOp::Or;
  default: return IntOp::Xor;
  }
}

/// The defined functions of a module; a callee's index is its position.
struct ModuleFacts {
  std::vector<const FunctionDecl *> Defined;

  uint32_t index(const FunctionDecl *F) const {
    return static_cast<uint32_t>(
        std::find(Defined.begin(), Defined.end(), F) - Defined.begin());
  }
};

/// The register file of a value of Sema type \p T (None: no value, or
/// one the tier has no file for).
Kind kindOf(const Type *T) {
  if (!T)
    return Kind::None;
  if (T->isFloating())
    return Kind::Iv;
  if (T->isInteger())
    return Kind::Int;
  if (T->isPointer() || T->isArray())
    return Kind::Ptr;
  return Kind::None;
}

/// What parameter \p P takes (its register is the lowering's to set).
ParamSlot paramSlot(const VarDecl *P) {
  ParamSlot S;
  S.Name = P->Name;
  if (P->HasTolerance) {
    S.T = ParamSlot::Takes::Tolerance;
    S.TolUp = P->TolUp;
  } else if (P->Ty->isSimdVector()) {
    S.T = ParamSlot::Takes::Vector;
  } else if (P->Ty->isFloating()) {
    S.T = ParamSlot::Takes::Iv;
  } else if (P->Ty->isInteger()) {
    S.T = ParamSlot::Takes::Int;
  } else if (P->Ty->isPointer() || P->Ty->isArray()) {
    S.T = ParamSlot::Takes::Ptr;
  } else {
    S.T = ParamSlot::Takes::Other;
  }
  return S;
}

struct Val {
  Kind K = Kind::None;
  uint32_t Reg = 0;
  bool Var = false;      ///< the register of a variable, not a copy
  bool IntConst = false; ///< an integer literal (value in C)
  long long C = 0;
  bool Dead = false; ///< after a failure: never reached at run time
  /// A variable read that may precede its first store: the init flag to
  /// test before the value is used (NoReg: none).
  uint32_t Flag = NoReg;
};

/// Definite assignment is tracked for the first MaxTracked slots; a read
/// of any later variable counts as possibly uninitialized, which only
/// costs speed (the variable gets an init flag).
constexpr unsigned MaxTracked = 128;
using SlotSet = std::bitset<MaxTracked>;

struct LVal {
  enum class K { Slot, Element, Dead } Kind = K::Dead;
  const VarDecl *V = nullptr;
  uint32_t Ptr = 0, Abs = 0; ///< Element: pointer register, absolute index
};

struct Label {
  uint32_t Id;
};

/// Constants of one function and their registers (~0u until assigned).
/// Functions pool a handful, so a vector beats a node-based map.
template <typename K> struct ConstPool {
  std::vector<std::pair<K, uint32_t>> Items;
  uint32_t &operator[](const K &Key) {
    for (auto &KV : Items)
      if (KV.first == Key)
        return KV.second;
    Items.push_back({Key, ~0u});
    return Items.back().second;
  }
};

/// Buffers one lowering pass fills and the next reuses, so lowering a
/// module allocates little beyond the code it keeps.
struct Scratch {
  std::vector<Insn> Code;
  std::vector<const VarDecl *> Vars;
  std::vector<Kind> VarKind;
  std::vector<uint32_t> VarReg, FlagReg;
  std::vector<std::pair<const IfStmt *, uint32_t>> JoinFlag;
  std::vector<int64_t> LabelAt;
  std::vector<std::pair<uint32_t, int>> Fixups;
};

/// Inputs and outputs of one lowering pass of one function. A pass that
/// finds a new slot to flag or a constant the pre-scan missed is rerun.
struct PassState {
  std::vector<bool> Flagged; ///< per slot: read while not assigned
  ConstPool<std::pair<uint64_t, uint64_t>> IvConsts;
  ConstPool<long long> IntConsts;
  bool Rerun = false;
};

class FnLowering {
public:
  FnLowering(EvalModule &M, const ModuleFacts &Facts, const FunctionDecl *Fn,
             PassState &PS, Scratch &S)
      : M(M), Facts(Facts), Fn(Fn), PS(PS), Code(S.Code), Vars(S.Vars),
        VarKind(S.VarKind), VarReg(S.VarReg), FlagReg(S.FlagReg),
        JoinFlag(S.JoinFlag), LabelAt(S.LabelAt), Fixups(S.Fixups) {}

  FunctionCode run();

private:
  EvalModule &M;
  const ModuleFacts &Facts;
  const FunctionDecl *Fn;
  PassState &PS;
  FunctionCode F;
  std::vector<Insn> &Code;

  std::vector<const VarDecl *> &Vars; ///< by slot
  std::vector<Kind> &VarKind;         ///< storage, by slot
  std::vector<uint32_t> &VarReg;      ///< by slot
  std::vector<uint32_t> &FlagReg;     ///< init flag by slot, or NoReg
  SlotSet DA;                         ///< definitely assigned, by slot
  /// Join-safe interval ifs and their join-mode flag registers.
  std::vector<std::pair<const IfStmt *, uint32_t>> &JoinFlag;

  bool Prescanning = false;
  uint32_t Pending = 0;
  uint32_t NIv = 0, NInt = 0, NTb = 0, NPtr = 0;
  std::vector<int64_t> &LabelAt;
  std::vector<std::pair<uint32_t, int>> &Fixups; ///< insn, operand (0 A, 2 C)
  struct Loop {
    Label Break, Continue;
  };
  std::vector<Loop> Loops;
  Label FallOff{0};

  // --- registers and constants ---

  uint32_t tmp(Kind K) {
    switch (K) {
    case Kind::Iv: F.NumIv = std::max(F.NumIv, NIv + 1); return NIv++;
    case Kind::Int: F.NumInt = std::max(F.NumInt, NInt + 1); return NInt++;
    case Kind::Tb: F.NumTb = std::max(F.NumTb, NTb + 1); return NTb++;
    case Kind::Ptr: F.NumPtr = std::max(F.NumPtr, NPtr + 1); return NPtr++;
    case Kind::None: break;
    }
    return 0;
  }
  uint32_t ivConst(const Interval &V) {
    uint64_t A, B;
    std::memcpy(&A, &V.NegLo, 8);
    std::memcpy(&B, &V.Hi, 8);
    uint32_t Reg = PS.IvConsts[{A, B}];
    if (Reg != ~0u || Prescanning)
      return Reg;
    // Missed by the pre-scan: the next pass pools it.
    PS.Rerun = true;
    return tmp(Kind::Iv);
  }
  uint32_t intConst(long long V) {
    uint32_t Reg = PS.IntConsts[V];
    if (Reg != ~0u || Prescanning)
      return Reg;
    PS.Rerun = true;
    return tmp(Kind::Int);
  }
  Val intVal(long long V) {
    Val R{Kind::Int, intConst(V)};
    R.IntConst = true;
    R.C = V;
    return R;
  }
  Val dead() {
    Val R;
    R.Dead = true;
    return R;
  }

  // --- emission ---

  uint32_t emit(Op O, uint8_t X = 0, uint32_t A = 0, uint32_t B = 0,
                uint32_t C = 0) {
    while (Pending > 0xFFFF) {
      Code.push_back(Insn{Op::Step, 0, 0xFFFF});
      Pending -= 0xFFFF;
    }
    Code.push_back(Insn{O, X, static_cast<uint16_t>(Pending), A, B, C});
    Pending = 0;
    return static_cast<uint32_t>(Code.size() - 1);
  }
  void step() { ++Pending; }
  Label label() {
    LabelAt.push_back(-1);
    return Label{static_cast<uint32_t>(LabelAt.size() - 1)};
  }
  void place(Label L) {
    if (Pending)
      emit(Op::Step);
    LabelAt[L.Id] = static_cast<int64_t>(Code.size());
  }
  void jumpOp(Op O, uint8_t X, Label L, uint32_t B = 0, uint32_t C = 0) {
    uint32_t I = emit(O, X, L.Id, B, C);
    Fixups.push_back({I, 0});
  }
  void jmp(Label L) { jumpOp(Op::Jmp, 0, L); }
  /// A failure naming a function or callee.
  uint32_t failure(std::string_view Code, const std::string &Msg) {
    for (size_t I = 0; I < M.Failures.size(); ++I)
      if (M.Failures[I].Code == Code && M.Failures[I].Message == Msg)
        return static_cast<uint32_t>(NumFixedFailures + I);
    M.Failures.push_back({std::string(Code), Msg});
    return static_cast<uint32_t>(NumFixedFailures + M.Failures.size() - 1);
  }
  Val fail(uint32_t FailIdx) {
    emit(Op::Fail, 0, FailIdx);
    return dead();
  }
  Val fail(const std::string &Msg) { return fail(failure("unsupported", Msg)); }

  // --- variables ---

  bool isDA(unsigned S) const { return S < MaxTracked && DA[S]; }
  /// Variable \p V as an operand: flagged when it may be unassigned.
  Val readVar(const VarDecl *V) {
    unsigned S = V->Slot;
    Val R{VarKind[S], VarReg[S]};
    R.Var = true;
    if (!isDA(S)) {
      if (!PS.Flagged[S])
        PS.Flagged[S] = PS.Rerun = true;
      R.Flag = FlagReg[S];
    }
    return R;
  }
  /// \p V, after failing with \p FailIdx if it is an unassigned variable.
  Val checked(Val V, uint32_t FailIdx) {
    if (V.Flag == NoReg)
      return V;
    Label Ok = label();
    jumpOp(Op::JmpNZ, 0, Ok, V.Flag);
    fail(FailIdx);
    place(Ok);
    V.Flag = NoReg;
    return V;
  }
  /// Marks \p V assigned once its register holds the stored value.
  void assigned(const VarDecl *V) {
    setDA(V->Slot, true);
    if (FlagReg[V->Slot] != NoReg)
      emit(Op::IntMov, 0, FlagReg[V->Slot], intConst(1));
  }
  void setDA(unsigned S, bool V) {
    if (S < MaxTracked)
      DA[S] = V;
  }
  static void meet(SlotSet &A, const SlotSet &B) { A &= B; }

  /// A copy of \p V when evaluating \p Later could change the variable
  /// it aliases (the translation reads operands into temporaries).
  Val protect(Val V, const Expr *Later) {
    if (!V.Var || !hasEffects(Later))
      return V;
    return copy(V);
  }
  Val copy(Val V) {
    Val R{V.K, tmp(V.K)};
    switch (V.K) {
    case Kind::Iv: emit(Op::IvMov, 0, R.Reg, V.Reg); break;
    case Kind::Int: emit(Op::IntMov, 0, R.Reg, V.Reg); break;
    case Kind::Ptr: emit(Op::PtrMov, 0, R.Reg, V.Reg); break;
    default: return V;
    }
    if (V.Flag != NoReg) {
      R.Flag = tmp(Kind::Int);
      emit(Op::IntMov, 0, R.Flag, V.Flag);
    }
    return R;
  }
  /// Parser nesting bounds keep the repeated walks linear in practice.
  static bool hasEffects(const Expr *E) {
    bool R = false;
    if (const auto *B = dynCast<BinaryExpr>(E))
      R = B->isAssignment();
    else if (const auto *U = dynCast<UnaryExpr>(E))
      R = U->O == UnaryExpr::Op::PreInc || U->O == UnaryExpr::Op::PreDec ||
          U->O == UnaryExpr::Op::PostInc || U->O == UnaryExpr::Op::PostDec;
    else if (const auto *C = dynCast<CallExpr>(E))
      R = classifyCallee(C->Callee) != CalleeKind::MathFunction;
    if (!R)
      forEachSubexpr(E, [&](const Expr *Sub) { R = R || hasEffects(Sub); });
    return R;
  }

  // --- category conversions (the translation's asInterval & co.) ---

  Val asIv(Val V) {
    switch (V.K) {
    case Kind::Iv:
      return checked(V, FailNotScalar);
    case Kind::Int: {
      if (V.IntConst)
        return Val{Kind::Iv,
                   ivConst(Interval::fromPoint(static_cast<double>(V.C)))};
      V = checked(V, FailNotScalar);
      Val R{Kind::Iv, tmp(Kind::Iv)};
      emit(Op::IntToIv, 0, R.Reg, V.Reg);
      return R;
    }
    case Kind::Tb:
      return fail(FailTbAsValue);
    default:
      return fail(FailNotScalar);
    }
  }
  Val asTb(Val V) {
    switch (V.K) {
    case Kind::Tb:
      return V;
    case Kind::Int: {
      V = checked(V, FailBadCondition);
      Val R{Kind::Tb, tmp(Kind::Tb)};
      emit(Op::IntToTb, 0, R.Reg, V.Reg);
      return R;
    }
    default:
      return fail(FailBadCondition);
    }
  }
  /// \p V as category \p Want (Int or Ptr), else failure \p FailIdx.
  Val expect(Val V, Kind Want, uint32_t FailIdx) {
    return V.K == Want ? checked(V, FailIdx) : fail(FailIdx);
  }
  /// Branches to \p L when the condition \p V converts to \p IfTrue.
  void condJump(Val V, Where W, Label L, bool IfTrue) {
    switch (V.K) {
    case Kind::Int:
      V = checked(V, FailCondValue);
      jumpOp(IfTrue ? Op::JmpNZ : Op::JmpZ, 0, L, V.Reg);
      return;
    case Kind::Tb:
      jumpOp(Op::CondTb, IfTrue, L, V.Reg, static_cast<uint32_t>(W));
      return;
    default:
      fail(FailCondValue);
    }
  }
  /// The condition \p V converted to 0/1.
  Val condValue(Val V, Where W) {
    Val R{Kind::Int, tmp(Kind::Int)};
    switch (V.K) {
    case Kind::Int:
      emit(Op::IntNZ, 0, R.Reg, checked(V, FailCondValue).Reg);
      return R;
    case Kind::Tb:
      emit(Op::TbCvt, 0, R.Reg, V.Reg, static_cast<uint32_t>(W));
      return R;
    default:
      return fail(FailCondValue);
    }
  }

  // --- expressions ---

  Val expr(const Expr *E, uint32_t Hint = NoReg);
  Val unary(const UnaryExpr *U, uint32_t Hint);
  Val binary(const BinaryExpr *B, uint32_t Hint);
  Val assign(const BinaryExpr *B);
  Val arith(const BinaryExpr *B, Val L, Val R, uint32_t Hint);
  Val compare(const BinaryExpr *B, Val L, Val R);
  Val conditional(const ConditionalExpr *C, uint32_t Hint);
  Val call(const CallExpr *C, uint32_t Hint);
  Val castExpr(const CastExpr *C, uint32_t Hint);
  LVal lvalue(const Expr *E);
  void condBranch(const Expr *Cond, Where W, Label L, bool IfTrue);
  uint32_t ivDst(uint32_t Hint) { return Hint != NoReg ? Hint : tmp(Kind::Iv); }

  // --- statements ---

  void stmt(const Stmt *S);
  void decl(const VarDecl *D);
  void ifStmt(const IfStmt *S);
  void forStmt(const ForStmt *S);
  void returnStmt(const ReturnStmt *S);
  void prescan(const Stmt *S);
  void prescan(const Expr *E);
};

void FnLowering::prescan(const Expr *E) {
  if (const auto *I = dynCast<IntLiteralExpr>(E)) {
    intConst(I->Value);
    ivConst(Interval::fromPoint(static_cast<double>(I->Value)));
  } else if (const auto *L = dynCast<FloatLiteralExpr>(E)) {
    ivConst(L->Enc->F64);
  }
  forEachSubexpr(E, [&](const Expr *Sub) { prescan(Sub); });
}

void FnLowering::prescan(const Stmt *S) {
  if (const auto *DS = dynCast<DeclStmt>(S))
    for (const VarDecl *D : DS->Decls) {
      if (D->Slot < Vars.size())
        Vars[D->Slot] = D;
      if (D->Ty->isArray())
        intConst(D->Ty->arraySize());
    }
  if (const auto *If = dynCast<IfStmt>(S))
    if (If->JoinSafe && isTBool(If->Cond))
      JoinFlag.push_back({If, 0});
  forEachChild(
      S, [&](const Expr *E) { prescan(E); },
      [&](const Stmt *C) { prescan(C); });
}

FunctionCode FnLowering::run() {
  F.Name = Fn->Name;
  F.Ret = kindOf(Fn->RetTy);
  unsigned N = Fn->NumSlots;
  Code.clear();
  JoinFlag.clear();
  LabelAt.clear();
  Fixups.clear();
  Vars.assign(N, nullptr);
  for (const VarDecl *P : Fn->Params)
    if (P->Slot < N)
      Vars[P->Slot] = P;

  // Constant pool first: literal enclosures, ints and their interval
  // conversions, then the join-mode and init flags (zero), then
  // variables.
  for (auto &KV : PS.IvConsts.Items)
    KV.second = ~0u;
  for (auto &KV : PS.IntConsts.Items)
    KV.second = ~0u;
  PS.Rerun = false;
  Prescanning = true;
  intConst(0);
  intConst(1);
  prescan(Fn->Body);
  Prescanning = false;
  F.IvInit.reserve(PS.IvConsts.Items.size());
  F.IntInit.reserve(PS.IntConsts.Items.size() + JoinFlag.size());
  for (auto &KV : PS.IvConsts.Items) {
    Interval V;
    std::memcpy(&V.NegLo, &KV.first.first, 8);
    std::memcpy(&V.Hi, &KV.first.second, 8);
    KV.second = tmp(Kind::Iv);
    F.IvInit.push_back(V);
  }
  for (auto &KV : PS.IntConsts.Items) {
    KV.second = tmp(Kind::Int);
    F.IntInit.push_back(KV.first);
  }
  for (auto &KV : JoinFlag) {
    KV.second = tmp(Kind::Int);
    F.IntInit.push_back(0);
  }
  FlagReg.assign(N, NoReg);
  for (unsigned S = 0; S < N; ++S)
    if (PS.Flagged[S]) {
      FlagReg[S] = tmp(Kind::Int);
      F.IntInit.push_back(0);
    }
  VarKind.assign(N, Kind::Iv);
  VarReg.assign(N, 0);
  for (unsigned S = 0; S < N; ++S) {
    const VarDecl *V = Vars[S];
    if (V && (V->Ty->isPointer() || V->Ty->isArray()))
      VarKind[S] = Kind::Ptr;
    else if (V && !V->Ty->isFloatingOrVector())
      VarKind[S] = Kind::Int;
    if (V && V->Ty->isArray())
      F.ZeroPtr = true;
  }
  // Flagged variables first, zeroed by the image: a copy of one taken
  // before its first store (protect) reads a defined value.
  for (bool First : {true, false})
    for (unsigned S = 0; S < N; ++S) {
      if (PS.Flagged[S] != First)
        continue;
      VarReg[S] = tmp(VarKind[S]);
      if (!First)
        continue;
      if (VarKind[S] == Kind::Iv)
        F.IvInit.push_back(Interval::fromPoint(0.0));
      else if (VarKind[S] == Kind::Int)
        F.IntInit.push_back(0);
      else
        F.ZeroPtr = true;
    }
  F.NumAcc = static_cast<uint32_t>(
      Fn->Lowering ? Fn->Lowering->Reductions.Sites.size() : 0);

  // Parameters: bound by the executor, in order, before the body runs.
  F.Params.reserve(Fn->Params.size());
  DA.reset();
  for (const VarDecl *P : Fn->Params) {
    ParamSlot PSlot = paramSlot(P);
    PSlot.Reg = VarReg[P->Slot];
    F.Params.push_back(std::move(PSlot));
    setDA(P->Slot, true);
  }

  FallOff = label();
  // The body compound itself counts no step.
  for (const Stmt *S : Fn->Body->Body)
    stmt(S);
  place(FallOff);
  if (F.Ret != Kind::None)
    fail(failure("unsupported",
                 "function '" + Fn->Name + "' returned without a value"));
  else
    emit(Op::RetNone);

  for (auto [I, Field] : Fixups) {
    Insn &In = Code[I];
    uint32_t &Op = Field == 0 ? In.A : In.C;
    Op = static_cast<uint32_t>(LabelAt[Op]);
  }
  F.Code.assign(Code.begin(), Code.end()); // exact size: kept with the program
  return std::move(F);
}

// --- expressions ---

Val FnLowering::expr(const Expr *E, uint32_t Hint) {
  step();
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
    return intVal(cast<IntLiteralExpr>(E)->Value);
  case Expr::Kind::FloatLiteral:
    return Val{Kind::Iv, ivConst(cast<FloatLiteralExpr>(E)->Enc->F64)};
  case Expr::Kind::DeclRef: {
    const auto *Ref = cast<DeclRefExpr>(E);
    if (!Ref->Decl)
      return fail(failure("unsupported", "reference to undeclared name '" +
                                             Ref->Name + "'"));
    return readVar(Ref->Decl);
  }
  case Expr::Kind::Paren:
    return expr(cast<ParenExpr>(E)->Sub, Hint);
  case Expr::Kind::Unary:
    return unary(cast<UnaryExpr>(E), Hint);
  case Expr::Kind::Binary:
    return binary(cast<BinaryExpr>(E), Hint);
  case Expr::Kind::Conditional:
    return conditional(cast<ConditionalExpr>(E), Hint);
  case Expr::Kind::Call:
    return call(cast<CallExpr>(E), Hint);
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    Val Base = expr(I->Base);
    Val Idx = expr(I->Idx);
    uint32_t Bad = FailSubscript;
    Base = expect(Base, Kind::Ptr, Bad);
    if (Base.K == Kind::None)
      return Base;
    Idx = expect(Idx, Kind::Int, Bad);
    if (Idx.K == Kind::None)
      return Idx;
    if (!(E->type() && E->type()->isFloating()))
      return fail(FailNonDoubleIndex);
    Val R{Kind::Iv, ivDst(Hint)};
    emit(Op::Index, 0, R.Reg, Base.Reg, Idx.Reg);
    return R;
  }
  case Expr::Kind::Cast:
    return castExpr(cast<CastExpr>(E), Hint);
  }
  return fail("unsupported expression kind");
}

Val FnLowering::unary(const UnaryExpr *U, uint32_t Hint) {
  switch (U->O) {
  case UnaryExpr::Op::Neg: {
    Val Sub = expr(U->Sub, Hint);
    if (Sub.K != Kind::Iv && Sub.K != Kind::Int)
      return fail(FailNegOperand);
    Sub = checked(Sub, FailNegOperand);
    Val R{Sub.K, Sub.K == Kind::Iv ? ivDst(Hint) : tmp(Kind::Int)};
    emit(Sub.K == Kind::Iv ? Op::IvNeg : Op::IntNeg, 0, R.Reg, Sub.Reg);
    return R;
  }
  case UnaryExpr::Op::Plus:
    return expr(U->Sub, Hint);
  case UnaryExpr::Op::LogicalNot: {
    Val Sub = expr(U->Sub);
    if (Sub.K != Kind::Tb && Sub.K != Kind::Int)
      return fail(FailNotOperand);
    Sub = checked(Sub, FailNotOperand);
    Op O = Sub.K == Kind::Tb ? Op::TbNot : Op::IntLNot;
    Val R{Sub.K, tmp(Sub.K)};
    emit(O, 0, R.Reg, Sub.Reg);
    return R;
  }
  case UnaryExpr::Op::BitNot: {
    Val Sub = expect(expr(U->Sub), Kind::Int,
                     FailBitNot);
    if (Sub.K == Kind::None)
      return Sub;
    Val R{Kind::Int, tmp(Kind::Int)};
    emit(Op::IntBitNot, 0, R.Reg, Sub.Reg);
    return R;
  }
  case UnaryExpr::Op::PreInc:
  case UnaryExpr::Op::PreDec:
  case UnaryExpr::Op::PostInc:
  case UnaryExpr::Op::PostDec: {
    LVal L = lvalue(U->Sub);
    if (L.Kind == LVal::K::Dead)
      return dead();
    bool Pre = U->O == UnaryExpr::Op::PreInc || U->O == UnaryExpr::Op::PreDec;
    bool Inc =
        U->O == UnaryExpr::Op::PreInc || U->O == UnaryExpr::Op::PostInc;
    uint8_t X = (Pre ? 1 : 0) | (Inc ? 2 : 0);
    if (L.Kind != LVal::K::Slot || VarKind[L.V->Slot] != Kind::Int)
      return fail(FailIncDec);
    Val Var = checked(readVar(L.V), FailIncDec);
    Val R{Kind::Int, tmp(Kind::Int)};
    emit(Op::IntIncDec, X, R.Reg, Var.Reg);
    return R;
  }
  case UnaryExpr::Op::Deref: {
    Val Sub = expect(expr(U->Sub), Kind::Ptr,
                     FailDerefNonPtr);
    if (Sub.K == Kind::None)
      return Sub;
    if (!(U->type() && U->type()->isFloating()))
      return fail(FailNonDoubleDeref);
    Val R{Kind::Iv, ivDst(Hint)};
    emit(Op::Index, 0, R.Reg, Sub.Reg, intConst(0));
    return R;
  }
  case UnaryExpr::Op::AddrOf: {
    LVal L = lvalue(U->Sub);
    if (L.Kind == LVal::K::Dead)
      return dead();
    Val R{Kind::Ptr, tmp(Kind::Ptr)};
    if (L.Kind == LVal::K::Element) {
      emit(Op::AddrAt, 0, R.Reg, L.Ptr, L.Abs);
      return R;
    }
    if (VarKind[L.V->Slot] != Kind::Iv)
      return fail(FailAddrOf);
    Val Var = checked(readVar(L.V), FailAddrOf);
    emit(Op::AddrIv, 0, R.Reg, Var.Reg);
    return R;
  }
  }
  return fail("unsupported unary operator");
}

LVal FnLowering::lvalue(const Expr *E) {
  E = ignoreParens(E);
  LVal L;
  switch (E->kind()) {
  case Expr::Kind::DeclRef: {
    const auto *Ref = cast<DeclRefExpr>(E);
    if (!Ref->Decl) {
      fail(FailUndeclaredStore);
      return L;
    }
    L.Kind = LVal::K::Slot;
    L.V = Ref->Decl;
    return L;
  }
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    Val Base = expr(I->Base);
    Val Idx = expr(I->Idx);
    uint32_t Bad = FailSubscript;
    Base = expect(Base, Kind::Ptr, Bad);
    if (Base.K == Kind::None)
      return L;
    Idx = expect(Idx, Kind::Int, Bad);
    if (Idx.K == Kind::None)
      return L;
    L.Kind = LVal::K::Element;
    L.Ptr = Base.Reg;
    L.Abs = tmp(Kind::Int);
    emit(Op::Lea, 0, L.Abs, Base.Reg, Idx.Reg);
    return L;
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->O != UnaryExpr::Op::Deref)
      break;
    Val Sub = expect(expr(U->Sub), Kind::Ptr,
                     FailDerefNonPtr);
    if (Sub.K == Kind::None)
      return L;
    L.Kind = LVal::K::Element;
    L.Ptr = Sub.Reg;
    L.Abs = tmp(Kind::Int);
    emit(Op::Lea, 0, L.Abs, Sub.Reg, intConst(0));
    return L;
  }
  default:
    break;
  }
  fail(FailStoreTarget);
  return L;
}

Val FnLowering::binary(const BinaryExpr *B, uint32_t Hint) {
  if (B->isAssignment())
    return assign(B);
  switch (B->O) {
  case BinaryExpr::Op::LAnd:
  case BinaryExpr::Op::LOr: {
    bool And = B->O == BinaryExpr::Op::LAnd;
    if (isTBool(B)) {
      // ia_and_tb/ia_or_tb are plain calls: both operands evaluate.
      Val A = asTb(expr(B->LHS));
      if (A.K == Kind::None)
        return A;
      Val C = asTb(expr(B->RHS));
      if (C.K == Kind::None)
        return C;
      Val R{Kind::Tb, tmp(Kind::Tb)};
      emit(And ? Op::TbAnd : Op::TbOr, 0, R.Reg, A.Reg, C.Reg);
      return R;
    }
    // Plain: C short-circuit semantics, a 0/1 result.
    Val R{Kind::Int, tmp(Kind::Int)};
    Label Short = label(), End = label();
    condJump(expr(B->LHS), Where::Logical, Short, /*IfTrue=*/!And);
    SlotSet DA0 = DA;
    Val RV = condValue(expr(B->RHS), Where::Logical);
    if (RV.K != Kind::None)
      emit(Op::IntMov, 0, R.Reg, RV.Reg);
    jmp(End);
    place(Short);
    emit(Op::IntMov, 0, R.Reg, intConst(And ? 0 : 1));
    place(End);
    DA = DA0;
    return R;
  }
  case BinaryExpr::Op::Add:
  case BinaryExpr::Op::Sub:
  case BinaryExpr::Op::Mul:
  case BinaryExpr::Op::Div: {
    Val L = protect(expr(B->LHS), B->RHS);
    Val R = expr(B->RHS);
    return arith(B, L, R, Hint);
  }
  default:
    break;
  }
  Val L = protect(expr(B->LHS), B->RHS);
  Val R = expr(B->RHS);
  if (B->isComparison())
    return compare(B, L, R);
  // Remainder, shifts and bitwise operators: integers only.
  uint32_t Bad = FailBitOperands;
  L = expect(L, Kind::Int, Bad);
  if (L.K == Kind::None)
    return L;
  R = expect(R, Kind::Int, Bad);
  if (R.K == Kind::None)
    return R;
  Val Out{Kind::Int, tmp(Kind::Int)};
  emit(Op::IntBin, static_cast<uint8_t>(intOpOf(B->O)), Out.Reg, L.Reg,
       R.Reg);
  return Out;
}

Val FnLowering::arith(const BinaryExpr *B, Val L, Val R, uint32_t Hint) {
  bool FloatOp = isFloatOrVec(B->LHS->type()) || isFloatOrVec(B->RHS->type());
  if (!FloatOp) {
    L = checked(L, FailIntArith);
    R = checked(R, FailIntArith);
    // Pointer arithmetic stays plain C.
    if (L.K == Kind::Ptr && R.K == Kind::Int &&
        (B->O == BinaryExpr::Op::Add || B->O == BinaryExpr::Op::Sub)) {
      Val Out{Kind::Ptr, tmp(Kind::Ptr)};
      emit(Op::PtrOff, B->O == BinaryExpr::Op::Sub, Out.Reg, L.Reg, R.Reg);
      return Out;
    }
    if (L.K != Kind::Int || R.K != Kind::Int)
      return fail(FailIntArith);
    Val Out{Kind::Int, tmp(Kind::Int)};
    switch (B->O) {
    case BinaryExpr::Op::Add: emit(Op::IntAdd, 0, Out.Reg, L.Reg, R.Reg); break;
    case BinaryExpr::Op::Sub: emit(Op::IntSub, 0, Out.Reg, L.Reg, R.Reg); break;
    case BinaryExpr::Op::Mul: emit(Op::IntMul, 0, Out.Reg, L.Reg, R.Reg); break;
    default:
      emit(Op::IntBin, static_cast<uint8_t>(IntOp::Div), Out.Reg, L.Reg,
           R.Reg);
    }
    return Out;
  }
  Val A = asIv(L);
  if (A.K == Kind::None)
    return A;
  Val C = asIv(R);
  if (C.K == Kind::None)
    return C;
  Val Out{Kind::Iv, ivDst(Hint)};
  Op O = B->O == BinaryExpr::Op::Add   ? Op::IvAdd
         : B->O == BinaryExpr::Op::Sub ? Op::IvSub
         : B->O == BinaryExpr::Op::Mul ? Op::IvMul
                                       : Op::IvDiv;
  emit(O, 0, Out.Reg, A.Reg, C.Reg);
  return Out;
}

Val FnLowering::compare(const BinaryExpr *B, Val L, Val R) {
  bool FloatOp = isFloatOrVec(B->LHS->type()) || isFloatOrVec(B->RHS->type());
  uint8_t X = static_cast<uint8_t>(cmpOf(B->O));
  if (!FloatOp) {
    uint32_t Bad = FailCmpOperands;
    L = expect(L, Kind::Int, Bad);
    if (L.K == Kind::None)
      return L;
    R = expect(R, Kind::Int, Bad);
    if (R.K == Kind::None)
      return R;
    Val Out{Kind::Int, tmp(Kind::Int)};
    emit(Op::IntCmp, X, Out.Reg, L.Reg, R.Reg);
    return Out;
  }
  Val A = asIv(L); // SIMD vectors: rejected by checkLoweringSubset
  if (A.K == Kind::None)
    return A;
  Val C = asIv(R);
  if (C.K == Kind::None)
    return C;
  Val Out{Kind::Tb, tmp(Kind::Tb)};
  emit(Op::IvCmp, X, Out.Reg, A.Reg, C.Reg);
  return Out;
}

void FnLowering::condBranch(const Expr *Cond, Where W, Label L, bool IfTrue) {
  const auto *B = dynCast<BinaryExpr>(Cond);
  if (B && B->isComparison() && !isFloatOrVec(B->LHS->type()) &&
      !isFloatOrVec(B->RHS->type())) {
    // Fused integer compare-and-branch (the loop-condition shape).
    step();
    Val Lv = protect(expr(B->LHS), B->RHS);
    Val Rv = expr(B->RHS);
    if (Lv.K == Kind::Int && Rv.K == Kind::Int) {
      Lv = checked(Lv, FailCmpOperands);
      Rv = checked(Rv, FailCmpOperands);
      Cmp C = cmpOf(B->O);
      jumpOp(Op::JmpCmp, static_cast<uint8_t>(IfTrue ? C : negate(C)), L,
             Lv.Reg, Rv.Reg);
      return;
    }
    condJump(compare(B, Lv, Rv), W, L, IfTrue);
    return;
  }
  condJump(expr(Cond), W, L, IfTrue);
}

Val FnLowering::assign(const BinaryExpr *B) {
  // Lvalue first, then the right side, as the emitted assignment.
  LVal L = lvalue(B->LHS);
  bool IvTarget = isFloatOrVec(B->LHS->type());
  bool Plain = B->O == BinaryExpr::Op::Assign;
  const VarDecl *V = L.Kind == LVal::K::Slot ? L.V : nullptr;
  uint32_t VR = V ? VarReg[V->Slot] : 0;
  Val R = expr(B->RHS, IvTarget && Plain && V ? VR : NoReg);
  if (L.Kind == LVal::K::Dead)
    return dead();

  if (!IvTarget) {
    // Integer assignment: a compound one loads the current value first,
    // '=' does not read its target.
    if (V && VarKind[V->Slot] == Kind::Ptr)
      return fail(FailPtrAssign);
    uint32_t Cur = intConst(0); // an element reads as a non-int: I == 0
    if (V && !Plain)
      Cur = checked(readVar(V), FailUninitRead).Reg;
    if (R.K == Kind::Ptr)
      return fail(FailPtrAssign);
    uint32_t Rhs = intConst(0); // a non-int right side adds its I == 0
    if (R.K == Kind::Int)
      Rhs = checked(R, FailIntAssign).Reg;
    else if (Plain)
      return fail(FailIntAssign);
    uint32_t Out = Plain ? Rhs : V ? VR : tmp(Kind::Int);
    switch (B->O) {
    case BinaryExpr::Op::Assign: break;
    case BinaryExpr::Op::AddAssign: emit(Op::IntAdd, 0, Out, Cur, Rhs); break;
    case BinaryExpr::Op::SubAssign: emit(Op::IntSub, 0, Out, Cur, Rhs); break;
    case BinaryExpr::Op::MulAssign: emit(Op::IntMul, 0, Out, Cur, Rhs); break;
    default:
      emit(Op::IntBin, static_cast<uint8_t>(IntOp::Div), Out, Cur, Rhs);
    }
    if (!V)
      return fail(FailIntStore);
    if (Out != VR)
      emit(Op::IntMov, 0, VR, Out);
  } else {
    Val RV = asIv(R);
    if (RV.K == Kind::None)
      return RV;
    uint32_t Out = RV.Reg;
    if (!Plain) {
      uint32_t Cur;
      if (V) {
        Cur = checked(readVar(V), FailUninitRead).Reg;
      } else {
        Cur = tmp(Kind::Iv);
        emit(Op::LoadAt, 0, Cur, L.Ptr, L.Abs);
      }
      Out = V ? VR : tmp(Kind::Iv);
      Op O = B->O == BinaryExpr::Op::AddAssign   ? Op::IvAdd
             : B->O == BinaryExpr::Op::SubAssign ? Op::IvSub
             : B->O == BinaryExpr::Op::MulAssign ? Op::IvMul
                                                 : Op::IvDiv;
      emit(O, 0, Out, Cur, RV.Reg);
    }
    if (!V) {
      emit(Op::StoreAt, 0, L.Ptr, L.Abs, Out);
      return Val{Kind::Iv, Out};
    }
    if (Out != VR)
      emit(Op::IvMov, 0, VR, Out);
  }
  assigned(V);
  Val Res{VarKind[V->Slot], VR};
  Res.Var = true;
  return Res;
}

Val FnLowering::conditional(const ConditionalExpr *C, uint32_t Hint) {
  // A TBool condition is rejected by checkLoweringSubset.
  Label Else = label(), End = label();
  condJump(expr(C->Cond), Where::Conditional, Else, /*IfTrue=*/false);
  bool IsFloat = isFloatOrVec(C->type());
  uint32_t Dst = IsFloat ? ivDst(Hint) : NoReg;
  SlotSet DA0 = DA;
  // Plain condition: only the taken side evaluates. Each side ends in a
  // move into the shared result register, patched once both sides'
  // categories are known.
  auto Side = [&](const Expr *S, uint32_t &MoveAt) {
    Val V = expr(S, Dst);
    V = IsFloat ? asIv(V) : checked(V, FailUninitRead);
    MoveAt = emit(Op::Step);
    return V;
  };
  uint32_t ThenMove, ElseMove;
  Val T = Side(C->Then, ThenMove);
  jmp(End);
  SlotSet DAThen = DA;
  DA = DA0;
  place(Else);
  Val E = Side(C->Else, ElseMove);
  place(End);
  meet(DA, DAThen);

  Kind K;
  if (IsFloat)
    K = Kind::Iv;
  else if (T.Dead && E.Dead)
    return dead();
  else if (T.Dead || E.Dead)
    K = T.Dead ? E.K : T.K;
  else if (T.K == E.K)
    K = T.K;
  else // two categories: a pointer side wins (`k ? p : 0`), else no value
    K = T.K == Kind::Ptr || E.K == Kind::Ptr ? Kind::Ptr : Kind::None;
  Val R{K, 0};
  if (K == Kind::None)
    return R;
  R.Reg = IsFloat ? Dst : tmp(K);
  auto Patch = [&](uint32_t At, Val V) {
    Insn &In = Code[At];
    if (V.Dead || (V.K == K && V.Reg == R.Reg))
      return; // that side failed, or its value is already in place
    if (V.K != K) { // the other side of a pointer: fails where it runs
      In.O = Op::Fail;
      In.A = failure("unsupported", "'?:' sides of different categories "
                                    "are not supported by eval");
      return;
    }
    In.O = K == Kind::Iv    ? Op::IvMov
           : K == Kind::Int ? Op::IntMov
           : K == Kind::Ptr ? Op::PtrMov
                            : Op::TbMov;
    In.A = R.Reg;
    In.B = V.Reg;
  };
  Patch(ThenMove, T);
  Patch(ElseMove, E);
  return R;
}

Val FnLowering::call(const CallExpr *C, uint32_t Hint) {
  CalleeKind CK = classifyCallee(C->Callee);
  if (CK == CalleeKind::MathFunction) {
    if (C->Args.size() < mathOpArity(C->Math))
      return fail(failure("bad-argument",
                          "wrong number of arguments to '" + C->Callee + "'"));
    // -O0 semantics: always the libm-backed kernels, never the _fast
    // polynomial variants (those are -O1 rewrites).
    bool Binary = C->Math == MathOp::Min || C->Math == MathOp::Max;
    Val A = asIv(expr(C->Args[0]));
    if (A.K == Kind::None)
      return A;
    if (Binary) {
      A = protect(A, C->Args[1]);
      Val B = asIv(expr(C->Args[1]));
      if (B.K == Kind::None)
        return B;
      Val R{Kind::Iv, ivDst(Hint)};
      emit(C->Math == MathOp::Min ? Op::IvMin : Op::IvMax, 0, R.Reg, A.Reg,
           B.Reg);
      return R;
    }
    if (C->Math == MathOp::None)
      return fail("math function '" + C->Callee + "' has no interval kernel");
    Val R{Kind::Iv, ivDst(Hint)};
    emit(Op::IvMath, static_cast<uint8_t>(C->Math), R.Reg, A.Reg);
    return R;
  }
  if (CK == CalleeKind::Intrinsic)
    return fail(FailIntrinsic);
  if (CK == CalleeKind::Allocation)
    return fail(FailAllocation);

  const FunctionDecl *Callee = C->Fn;
  if (!Callee || !Callee->Body)
    return fail("call to external function '" + C->Callee +
                "' cannot be evaluated in-process");
  if (Callee->Params.size() != C->Args.size())
    return fail(failure("bad-argument",
                        "wrong number of arguments to '" + C->Callee + "'"));
  CallSite Site;
  Site.Callee = Facts.index(Callee);
  // Arguments the callee cannot bind fail the call once all evaluated.
  bool Rejected = false;
  Failure Why;
  for (size_t I = 0; I < C->Args.size(); ++I) {
    Val A = expr(C->Args[I]);
    if (isFloatOrVec(C->Args[I]->type())) {
      A = asIv(A);
      if (A.K == Kind::None)
        return A;
    } else {
      A = checked(A, FailUninitRead);
    }
    for (size_t J = I + 1; J < C->Args.size() && A.Var; ++J)
      A = protect(A, C->Args[J]);
    if (!Rejected && !A.Dead)
      Rejected = paramSlot(Callee->Params[I]).rejects(A.K, true, Why);
    Site.Args.push_back(A.Reg);
  }
  if (Rejected)
    return fail(failure(Why.Code, Why.Message));
  Val R{kindOf(Callee->RetTy)};
  R.Reg = R.K == Kind::Iv ? ivDst(Hint) : R.K == Kind::None ? 0 : tmp(R.K);
  Site.Dst = R.Reg;
  M.Calls.push_back(std::move(Site));
  emit(Op::Call, 0, static_cast<uint32_t>(M.Calls.size() - 1));
  return R;
}

Val FnLowering::castExpr(const CastExpr *C, uint32_t Hint) {
  Val Sub = expr(C->Sub);
  const Type *From = C->Sub->type();
  if (C->To->isPointer())
    return expect(Sub, Kind::Ptr,
                  FailPtrCast);
  if (C->To->isFloating()) {
    // ia_f32cast_f64: a double interval narrowed to float rounds outward.
    bool Narrow = C->To->kind() == Type::Kind::Float && From &&
                  From->kind() == Type::Kind::Double;
    if (Sub.K != Kind::Iv && Sub.K != Kind::Int)
      return fail(FailCastOperand);
    Sub = asIv(checked(Sub, FailCastOperand));
    if (!Narrow)
      return Sub;
    Val R{Kind::Iv, ivDst(Hint)};
    emit(Op::IvF32, 0, R.Reg, Sub.Reg);
    return R;
  }
  // Integer casts: emitted C applies the target width.
  Sub = expect(Sub, Kind::Int,
               FailIvToInt);
  if (Sub.K == Kind::None)
    return Sub;
  if (C->To->kind() != Type::Kind::Int && C->To->kind() != Type::Kind::UInt)
    return Sub;
  Val R{Kind::Int, tmp(Kind::Int)};
  emit(Op::IntTrunc, C->To->kind() == Type::Kind::UInt, R.Reg, Sub.Reg);
  return R;
}

// --- statements ---

void FnLowering::decl(const VarDecl *D) {
  unsigned S = D->Slot;
  uint32_t VR = VarReg[S];
  if (D->Ty->isArray()) {
    const Type *Elem = D->Ty->element();
    if (!Elem->isFloating() || Elem->isArray()) {
      fail(FailLocalArray);
      return;
    }
    emit(Op::ArrDecl, 0, VR, intConst(D->Ty->arraySize()));
    assigned(D);
    if (D->Init)
      fail(FailArrayInit);
    return;
  }
  if (D->Ty->isSimdVector()) {
    fail(FailSimdLocal);
    return;
  }
  if (!D->Init) {
    // Uninitialized until the first store.
    if (FlagReg[S] != NoReg)
      emit(Op::IntMov, 0, FlagReg[S], intConst(0));
    setDA(S, false);
    return;
  }
  bool Floating = D->Ty->isFloatingOrVector();
  Val V = expr(D->Init, Floating ? VR : NoReg);
  if (Floating) {
    V = asIv(V);
  } else if (D->Ty->isPointer()) {
    V = expect(V, Kind::Ptr,
               FailPtrInit);
  } else {
    V = expect(V, Kind::Int,
               FailIntInit);
  }
  if (V.K == Kind::None)
    return;
  if (V.Reg != VR)
    emit(V.K == Kind::Iv    ? Op::IvMov
         : V.K == Kind::Ptr ? Op::PtrMov
                            : Op::IntMov,
         0, VR, V.Reg);
  assigned(D);
}

void FnLowering::returnStmt(const ReturnStmt *R) {
  if (!R->Value) {
    // A value-less return acts as falling off the end.
    jmp(FallOff);
    return;
  }
  Val V = expr(R->Value);
  if (F.Ret == Kind::None) {
    jmp(FallOff); // a void function drops the value
    return;
  }
  if (F.Ret == Kind::Iv)
    V = asIv(V);
  else if (V.K == F.Ret)
    V = checked(V, FailUninitRead);
  else if (!V.Dead)
    V = fail(failure("unsupported", "return value of '" + Fn->Name +
                                        "' does not match its return type"));
  if (!V.Dead)
    emit(Op::Ret, 0, V.Reg);
}

void FnLowering::ifStmt(const IfStmt *S) {
  if (!isTBool(S->Cond)) {
    Label Else = label(), End = label();
    condBranch(S->Cond, Where::If, Else, /*IfTrue=*/false);
    SlotSet DA0 = DA;
    stmt(S->Then);
    if (S->Else) {
      jmp(End);
      SlotSet DAThen = DA;
      DA = DA0;
      place(Else);
      stmt(S->Else);
      place(End);
      meet(DA, DAThen);
    } else {
      place(Else);
      meet(DA, DA0);
    }
    return;
  }

  Val C = asTb(expr(S->Cond));
  if (C.K == Kind::None)
    return;
  auto Flag = std::find_if(JoinFlag.begin(), JoinFlag.end(),
                           [&](const auto &KV) { return KV.first == S; });
  SlotSet DA0 = DA;
  Label Else = label(), End = label();
  if (Flag == JoinFlag.end()) {
    // Exception policy only: ia_cvt2bool_tb, which may signal.
    jumpOp(Op::IfTb, 0, S->Else ? Else : End, C.Reg);
    stmt(S->Then);
    if (S->Else) {
      jmp(End);
      SlotSet DAThen = DA;
      DA = DA0;
      place(Else);
      stmt(S->Else);
      meet(DA, DAThen);
    } else {
      meet(DA, DA0);
    }
    place(End);
    return;
  }

  // Join-safe: an Unknown condition under the join flag runs both
  // branches on the entry state and hulls the join targets. The branch
  // bodies are shared with the decided paths; the join-mode flag sends
  // each body's end on to the swap and hull steps.
  uint32_t JM = Flag->second;
  std::vector<uint32_t> Saved;
  for (size_t I = 0; I < S->JoinTargets.size(); ++I)
    Saved.push_back(tmp(Kind::Iv));
  Label Unknown = label(), Then = label();
  uint32_t At = emit(Op::IfTb, 0, (S->Else ? Else : End).Id, C.Reg,
                     Unknown.Id);
  Fixups.push_back({At, 0});
  Fixups.push_back({At, 2});
  place(Then);
  stmt(S->Then);
  jumpOp(Op::JmpZ, 0, End, JM);
  SlotSet DAThen = DA;
  DA = DA0;
  for (size_t I = 0; I < Saved.size(); ++I)
    emit(Op::IvSwap, 0, VarReg[S->JoinTargets[I]->Slot], Saved[I]);
  if (S->Else) {
    place(Else);
    stmt(S->Else);
    jumpOp(Op::JmpZ, 0, End, JM);
  }
  meet(DA, DAThen);
  emit(Op::IntMov, 0, JM, intConst(0));
  for (size_t I = 0; I < Saved.size(); ++I)
    emit(Op::IvHull, 0, VarReg[S->JoinTargets[I]->Slot], Saved[I]);
  jmp(End);
  // Saved holds the entry state, then (swapped) the Then results.
  SlotSet DAExit = DA;
  DA = DA0;
  place(Unknown);
  for (size_t I = 0; I < Saved.size(); ++I) {
    Val T = checked(readVar(S->JoinTargets[I]), FailJoinTarget);
    emit(Op::IvMov, 0, Saved[I], T.Reg);
  }
  emit(Op::IntMov, 0, JM, intConst(1));
  jmp(Then);
  place(End);
  DA = DAExit;
}

void FnLowering::forStmt(const ForStmt *S) {
  if (S->Init) {
    if (const auto *DS = dynCast<DeclStmt>(S->Init)) {
      for (const VarDecl *D : DS->Decls)
        decl(D);
    } else if (const auto *ES = dynCast<ExprStmt>(S->Init)) {
      expr(ES->E);
    }
  }
  // Reduction accumulators: initialized with the current target
  // enclosure before the loop, fed at the update statement, finalized
  // after the loop (a return inside skips the finalization, exactly as
  // the emitted code jumps past the post-loop assignment).
  const bool Reduce = !S->Reductions.empty();
  if (Reduce) {
    Label Skip = label();
    jumpOp(Op::JmpUnlessFlag, FlagReduce, Skip);
    SlotSet DA0 = DA;
    for (const ReductionSite *Site : S->Reductions) {
      Val V = asIv(expr(Site->Target));
      if (V.K != Kind::None)
        emit(Op::AccInit, 0, Site->Index, V.Reg);
    }
    place(Skip);
    DA = DA0;
  }
  SlotSet DA0 = DA;
  Label Top = label(), Cont = label(), Cond = label(), Exit = label();
  jmp(Cond);
  place(Top);
  Loops.push_back({Exit, Cont});
  stmt(S->Body);
  Loops.pop_back();
  DA = DA0;
  place(Cont);
  if (S->Inc)
    expr(S->Inc);
  DA = DA0;
  place(Cond);
  step(); // the iteration
  if (S->Cond)
    condBranch(S->Cond, Where::For, Top, /*IfTrue=*/true);
  else
    jmp(Top);
  place(Exit);
  DA = DA0;
  if (Reduce) {
    Label Skip = label();
    jumpOp(Op::JmpUnlessFlag, FlagReduce, Skip);
    for (const ReductionSite *Site : S->Reductions) {
      LVal L = lvalue(Site->Target);
      if (L.Kind == LVal::K::Dead)
        continue;
      if (L.Kind == LVal::K::Element) {
        uint32_t T = tmp(Kind::Iv);
        emit(Op::AccReduce, 0, T, Site->Index);
        emit(Op::StoreAt, 0, L.Ptr, L.Abs, T);
        continue;
      }
      emit(Op::AccReduce, 0, VarReg[L.V->Slot], Site->Index);
    }
    place(Skip);
    DA = DA0;
  }
}

void FnLowering::stmt(const Stmt *S) {
  // Temporaries live for one statement.
  const uint32_t MIv = NIv, MInt = NInt, MTb = NTb, MPtr = NPtr;
  step();
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->Body)
      stmt(Child);
    break;
  case Stmt::Kind::DeclStmt:
    for (const VarDecl *D : cast<DeclStmt>(S)->Decls)
      decl(D);
    break;
  case Stmt::Kind::ExprStmt: {
    const auto *ES = cast<ExprStmt>(S);
    if (!ES->Reduction) {
      expr(ES->E);
      break;
    }
    // Reduction update: with reductions on, feed each term into the
    // accumulator instead of executing the assignment.
    Label Plain = label(), End = label();
    jumpOp(Op::JmpUnlessFlag, FlagReduce, Plain);
    SlotSet DA0 = DA;
    for (const ReductionTerm &T : ES->Reduction->Terms) {
      Val V = asIv(expr(T.Term));
      if (V.K != Kind::None)
        emit(Op::AccAdd, T.Negated, ES->Reduction->Index, V.Reg);
    }
    jmp(End);
    DA = DA0;
    place(Plain);
    expr(ES->E);
    place(End);
    meet(DA, DA0);
    break;
  }
  case Stmt::Kind::If:
    ifStmt(cast<IfStmt>(S));
    break;
  case Stmt::Kind::For:
    forStmt(cast<ForStmt>(S));
    break;
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    SlotSet DA0 = DA;
    Label Top = label(), Cond = label(), Exit = label();
    jmp(Cond);
    place(Top);
    Loops.push_back({Exit, Cond});
    stmt(W->Body);
    Loops.pop_back();
    DA = DA0;
    place(Cond);
    step();
    condBranch(W->Cond, Where::While, Top, /*IfTrue=*/true);
    place(Exit);
    DA = DA0;
    break;
  }
  case Stmt::Kind::Do: {
    const auto *D = cast<DoStmt>(S);
    SlotSet DA0 = DA;
    Label Top = label(), Cond = label(), Exit = label();
    place(Top);
    step();
    Loops.push_back({Exit, Cond});
    stmt(D->Body);
    Loops.pop_back();
    DA = DA0;
    place(Cond);
    condBranch(D->Cond, Where::DoWhile, Top, /*IfTrue=*/true);
    place(Exit);
    DA = DA0;
    break;
  }
  case Stmt::Kind::Return:
    returnStmt(cast<ReturnStmt>(S));
    break;
  case Stmt::Kind::Break:
    jmp(Loops.empty() ? FallOff : Loops.back().Break);
    break;
  case Stmt::Kind::Continue:
    jmp(Loops.empty() ? FallOff : Loops.back().Continue);
    break;
  case Stmt::Kind::Null:
    break;
  }
  NIv = MIv;
  NInt = MInt;
  NTb = MTb;
  NPtr = MPtr;
}

} // namespace

std::unique_ptr<EvalModule> igen::evalcode::lowerForEval(const ASTContext &Ctx) {
  auto M = std::make_unique<EvalModule>();
  ModuleFacts Facts;
  for (const TopLevelItem &Item : Ctx.TU.Items)
    if (Item.Function && Item.Function->Body)
      Facts.Defined.push_back(Item.Function);
  M->Fns.reserve(Facts.Defined.size());
  Scratch S;
  PassState PS;
  for (const FunctionDecl *Fn : Facts.Defined) {
    PS.IvConsts.Items.clear();
    PS.IntConsts.Items.clear();
    PS.Flagged.assign(Fn->NumSlots, false);
    for (;;) {
      size_t Failures = M->Failures.size(), Calls = M->Calls.size();
      FunctionCode Code = FnLowering(*M, Facts, Fn, PS, S).run();
      if (!PS.Rerun) {
        M->Fns.push_back(std::move(Code));
        break;
      }
      M->Failures.resize(Failures);
      M->Calls.resize(Calls);
    }
  }
  return M;
}

//===- Evaluator.cpp - Register executor for the serve eval tier -----------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Runs the flat interval code transform/EvalCode.h lowered at compile
// time. One loop dispatches every instruction: it adds the instruction's
// step weight, takes the slow path only when the step budget or the next
// deadline poll is reached, and performs the effect on the current
// frame's typed register files. Calls push an activation record and a
// frame on a per-request stack (chunked, so frames never move and
// pointers into them stay valid); no heap allocation happens per call.
//
//===----------------------------------------------------------------------===//

#include "server/Evaluator.h"

#include "interval/Accumulator.h"
#include "interval/Elementary.h"
#include "interval/Interval32.h"
#include "interval/TBool.h"
#include "transform/EvalCode.h"
#include "transform/LoweringRules.h"

#include <algorithm>
#include <cstring>
#include <memory>

using namespace igen;
using namespace igen::server;
using namespace igen::evalcode;

namespace {

/// Thrown to unwind out of the executor; converted to a typed
/// EvalResult at the evalFunction boundary.
struct EvalAbort {
  EvalError E;
};

[[noreturn]] void fail(std::string Code, std::string Msg) {
  throw EvalAbort{{std::move(Code), std::move(Msg)}};
}

/// A pointer value: base buffer plus a signed offset, with the extent
/// carried along so every access is bounds-checked (out-of-range access
/// is undefined behavior in the compiled artifact; in the daemon it must
/// be a typed error, not a memory-safety hole).
struct PtrReg {
  Interval *Base;
  long long Size;
  long long Off;
};

/// One activation's register files.
struct Frame {
  Interval *V;
  long long *I;
  TBool *T;
  PtrReg *P;
  SumAccumulatorF64 *Acc;
};

/// Per-request LIFO storage for frames and local arrays. Chunks are
/// never moved or freed before the request ends, so a pointer into a
/// frame stays valid while the frame lives.
class FrameStack {
public:
  struct Mark {
    size_t Chunk, Top;
  };

  Mark mark() const { return {Cur, Top}; }
  void release(Mark M) {
    Cur = M.Chunk;
    Top = M.Top;
  }

  void *alloc(size_t Bytes) {
    Bytes = (Bytes + 15) & ~size_t(15);
    for (;;) {
      size_t Cap = Cur == 0 ? sizeof(Inline) : Chunks[Cur - 1].Size;
      if (Top + Bytes <= Cap) {
        std::byte *Base = Cur == 0 ? Inline : Chunks[Cur - 1].Mem.get();
        void *P = Base + Top;
        Top += Bytes;
        return P;
      }
      if (Cur == Chunks.size()) {
        size_t Size = std::max(Bytes, 2 * Cap);
        Chunks.push_back({std::unique_ptr<std::byte[]>(new std::byte[Size]),
                          Size});
      }
      ++Cur;
      Top = 0;
    }
  }

private:
  struct Chunk {
    std::unique_ptr<std::byte[]> Mem;
    size_t Size;
  };
  alignas(16) std::byte Inline[8192];
  std::vector<Chunk> Chunks;
  size_t Cur = 0, Top = 0;
};

size_t round16(size_t N) { return (N + 15) & ~size_t(15); }

/// The caller's state while a callee runs.
struct Activation {
  const FunctionCode *Fn;
  const Insn *Resume;
  Frame Regs;
  uint32_t Dst;
  FrameStack::Mark Mark;
};

bool compare(Cmp C, long long A, long long B) {
  switch (C) {
  case Cmp::LT: return A < B;
  case Cmp::GT: return A > B;
  case Cmp::LE: return A <= B;
  case Cmp::GE: return A >= B;
  case Cmp::EQ: return A == B;
  case Cmp::NE: return A != B;
  }
  return false;
}

TBool compare(Cmp C, const Interval &A, const Interval &B) {
  switch (C) {
  case Cmp::LT: return iCmpLT(A, B);
  case Cmp::GT: return iCmpGT(A, B);
  case Cmp::LE: return iCmpLE(A, B);
  case Cmp::GE: return iCmpGE(A, B);
  case Cmp::EQ: return iCmpEQ(A, B);
  case Cmp::NE: return iCmpNE(A, B);
  }
  return TBool::Unknown;
}

/// Two's-complement integer arithmetic (what the emitted C does on the
/// machines it targets, without the undefined behavior).
long long wrap(unsigned long long X) { return static_cast<long long>(X); }

Interval math(MathOp Op, const Interval &X) {
  switch (Op) {
  case MathOp::Sqrt: return iSqrt(X);
  case MathOp::Abs: return iAbs(X);
  case MathOp::Floor: return iFloor(X);
  case MathOp::Ceil: return iCeil(X);
  case MathOp::Exp: return iExp(X);
  case MathOp::Log: return iLog(X);
  case MathOp::Sin: return iSin(X);
  case MathOp::Cos: return iCos(X);
  case MathOp::Tan: return iTan(X);
  case MathOp::Atan: return iAtan(X);
  case MathOp::Asin: return iAsin(X);
  case MathOp::Acos: return iAcos(X);
  default: return X;
  }
}

class Machine {
public:
  Machine(const EvalModule &M, const EvalOptions &Opts)
      : M(M), Opts(Opts),
        LimitPlus1(Opts.StepLimit == ~0ull ? ~0ull : Opts.StepLimit + 1),
        Flags((Opts.JoinBranches ? 1u << FlagJoin : 0u) |
              (Opts.EnableReductions ? 1u << FlagReduce : 0u)) {
    if (Opts.HasDeadline)
      NextPoll = DeadlineCheckEvery;
    Threshold = std::min(LimitPlus1, NextPoll);
  }

  EvalResult run(const std::string &Function,
                 const std::vector<EvalArg> &Args);

private:
  const EvalModule &M;
  const EvalOptions &Opts;
  unsigned long long Steps = 0;
  const unsigned long long LimitPlus1;
  const unsigned Flags;
  unsigned Depth = 0;

  /// Amortization interval for wall-clock deadline polls: frequent
  /// enough that a hung loop is cancelled within microseconds of the
  /// deadline, rare enough that the clock read vanishes in the noise.
  static constexpr unsigned long long DeadlineCheckEvery = 512;
  /// Next Steps value at which to poll the clock; ~0 when no deadline
  /// is set, so disabled requests pay one always-false compare per op.
  unsigned long long NextPoll = ~0ull;
  /// min(step limit + 1, NextPoll): the only compare on the fast path.
  unsigned long long Threshold;
  /// Call-entry polls are strided too: deep recursion that makes
  /// little step progress still reaches a cancellation point every
  /// DeadlineCheckCalls frames, while a short request's single
  /// top-level call never pays a clock read at all.
  static constexpr unsigned DeadlineCheckCalls = 64;
  unsigned CallsSincePoll = 0;

  FrameStack Stack;
  std::vector<Activation> Calls;

  [[noreturn]] void failWith(uint32_t Idx) {
    const Failure &F = M.failure(Idx);
    fail(F.Code, F.Message);
  }

  void pollDeadline() {
    Threshold = std::min(LimitPlus1, NextPoll);
    if (std::chrono::steady_clock::now() >= Opts.Deadline)
      fail("deadline-exceeded",
           "evaluation exceeded the request's wall-clock deadline");
  }

  void checkDeadlineNow() {
    NextPoll = Steps + DeadlineCheckEvery;
    pollDeadline();
  }

  /// Steps reached the budget or the next deadline poll.
  void slowStep() {
    if (Steps >= LimitPlus1) {
      Steps = LimitPlus1;
      fail("step-limit", "evaluation exceeded the per-request step budget");
    }
    // The poll a step-by-step count would have made when it crossed
    // NextPoll, so the cadence stays every 512 steps.
    NextPoll += DeadlineCheckEvery;
    if (NextPoll <= Steps)
      NextPoll = Steps + DeadlineCheckEvery;
    pollDeadline();
  }

  /// Call entry: depth bound and the strided deadline poll.
  void enterCall() {
    if (++Depth > Opts.MaxCallDepth) {
      --Depth;
      fail("recursion-limit", "user-function call depth exceeded");
    }
    if (Opts.HasDeadline && ++CallsSincePoll >= DeadlineCheckCalls) {
      CallsSincePoll = 0;
      checkDeadlineNow();
    }
  }

  Frame newFrame(const FunctionCode &Fn) {
    size_t IvB = round16(Fn.NumIv * sizeof(Interval));
    size_t AccB = round16(Fn.NumAcc * sizeof(SumAccumulatorF64));
    size_t PB = round16(Fn.NumPtr * sizeof(PtrReg));
    size_t IB = round16(Fn.NumInt * sizeof(long long));
    auto *Base = static_cast<std::byte *>(
        Stack.alloc(IvB + AccB + PB + IB + Fn.NumTb));
    Frame F;
    F.V = reinterpret_cast<Interval *>(Base);
    F.Acc = reinterpret_cast<SumAccumulatorF64 *>(Base + IvB);
    F.P = reinterpret_cast<PtrReg *>(Base + IvB + AccB);
    F.I = reinterpret_cast<long long *>(Base + IvB + AccB + PB);
    F.T = reinterpret_cast<TBool *>(Base + IvB + AccB + PB + IB);
    if (!Fn.IvInit.empty())
      std::memcpy(F.V, Fn.IvInit.data(), Fn.IvInit.size() * sizeof(Interval));
    if (!Fn.IntInit.empty())
      std::memcpy(F.I, Fn.IntInit.data(),
                  Fn.IntInit.size() * sizeof(long long));
    if (Fn.ZeroPtr)
      std::memset(F.P, 0, PB);
    return F;
  }

  /// Widens a tolerance argument as the emitted prologue does: the body
  /// only reads the shadow _a = ia_set_tol(a, TolUp), so the parameter
  /// holds the widened interval directly.
  static void widen(const ParamSlot &P, Interval &A) {
    Failure Why;
    if (P.rejects(Kind::Iv, A.isPoint(), Why))
      fail(Why.Code, Why.Message);
    A = iSetTol(A.Hi, P.TolUp);
  }

  [[noreturn]] static void outOfBounds(long long At, long long Size) {
    fail("out-of-bounds", "array access at index " + std::to_string(At) +
                              " outside buffer of " + std::to_string(Size));
  }
  static long long checkedIndex(const PtrReg &P, long long Idx) {
    long long At = wrap(static_cast<unsigned long long>(P.Off) +
                        static_cast<unsigned long long>(Idx));
    if (!P.Base || At < 0 || At >= P.Size)
      outOfBounds(At, P.Size);
    return At;
  }
  [[noreturn]] static void unknownAt(uint32_t W) {
    fail("unknown-branch", std::string("interval condition is unknown at ") +
                               whereName(static_cast<Where>(W)));
  }

  long long intOp(IntOp Op, long long A, long long B) {
    using U = unsigned long long;
    switch (Op) {
    case IntOp::Add: return wrap(U(A) + U(B));
    case IntOp::Sub: return wrap(U(A) - U(B));
    case IntOp::Mul: return wrap(U(A) * U(B));
    case IntOp::Div:
      if (B == 0)
        failWith(FailDivZero);
      return B == -1 ? wrap(0 - U(A)) : A / B;
    case IntOp::Rem:
      if (B == 0)
        failWith(FailRemZero);
      return B == -1 ? 0 : A % B;
    case IntOp::Shl: return wrap(U(A) << (B & 63));
    case IntOp::Shr: return A >> (B & 63);
    case IntOp::And: return A & B;
    case IntOp::Or: return A | B;
    case IntOp::Xor: return A ^ B;
    }
    return 0;
  }

  /// Runs \p Fn on a bound frame until it returns; an interval or int
  /// result lands in \p Out.
  void exec(const FunctionCode *Fn, Frame R, EvalResult &Out);
};

void Machine::exec(const FunctionCode *Fn, Frame R, EvalResult &Out) {
  const Insn *Code = Fn->Code.data();
  const Insn *Pc = Code;
  for (;;) {
    const Insn &I = *Pc++;
    Steps += I.W;
    if (Steps >= Threshold)
      slowStep();
    switch (I.O) {
    // --- control ---
    case Op::Step:
      break;
    case Op::Jmp:
      Pc = Code + I.A;
      break;
    case Op::JmpZ:
      if (R.I[I.B] == 0)
        Pc = Code + I.A;
      break;
    case Op::JmpNZ:
      if (R.I[I.B] != 0)
        Pc = Code + I.A;
      break;
    case Op::JmpCmp:
      if (compare(static_cast<Cmp>(I.X), R.I[I.B], R.I[I.C]))
        Pc = Code + I.A;
      break;
    case Op::CondTb: {
      TBool C = R.T[I.B];
      if (C == TBool::Unknown)
        unknownAt(I.C);
      if ((C == TBool::True) == (I.X != 0))
        Pc = Code + I.A;
      break;
    }
    case Op::IfTb: {
      TBool C = R.T[I.B];
      if (C == TBool::True)
        break;
      if (C == TBool::False) {
        Pc = Code + I.A;
        break;
      }
      // Join policy where the branch is join-safe; otherwise the
      // translation's ia_cvt2bool_tb signals, surfaced as a typed error
      // instead of the process-global UnknownBranchHandler.
      if (I.C && (Flags & (1u << FlagJoin))) {
        Pc = Code + I.C;
        break;
      }
      fail("unknown-branch", "interval branch condition is unknown");
    }
    case Op::JmpUnlessFlag:
      if (!(Flags & (1u << I.X)))
        Pc = Code + I.A;
      break;
    case Op::Call: {
      const CallSite &S = M.Calls[I.A];
      const FunctionCode &Callee = M.Fns[S.Callee];
      enterCall();
      FrameStack::Mark Mk = Stack.mark();
      Frame NF = newFrame(Callee);
      // Lowering failed every call whose arguments do not bind by
      // category; only a tolerance's point check is left.
      for (size_t A = 0; A < Callee.Params.size(); ++A) {
        const ParamSlot &P = Callee.Params[A];
        uint32_t Arg = S.Args[A];
        switch (P.kind()) {
        case Kind::Iv: NF.V[P.Reg] = R.V[Arg]; break;
        case Kind::Int: NF.I[P.Reg] = R.I[Arg]; break;
        case Kind::Ptr: NF.P[P.Reg] = R.P[Arg]; break;
        default: break;
        }
        if (P.T == ParamSlot::Takes::Tolerance)
          widen(P, NF.V[P.Reg]);
      }
      Calls.push_back({Fn, Pc, R, S.Dst, Mk});
      Fn = &Callee;
      Code = Pc = Callee.Code.data();
      R = NF;
      break;
    }
    case Op::Ret:
    case Op::RetNone: {
      --Depth;
      Kind K = I.O == Op::Ret ? Fn->Ret : Kind::None;
      if (Calls.empty()) {
        Out.HasReturn = K == Kind::Iv || K == Kind::Int;
        Out.ReturnIsInt = K == Kind::Int;
        if (K == Kind::Iv)
          Out.Return = R.V[I.A];
        else if (K == Kind::Int)
          Out.ReturnInt = R.I[I.A];
        return;
      }
      const Activation &A = Calls.back();
      switch (K) {
      case Kind::Iv: A.Regs.V[A.Dst] = R.V[I.A]; break;
      case Kind::Int: A.Regs.I[A.Dst] = R.I[I.A]; break;
      case Kind::Ptr: A.Regs.P[A.Dst] = R.P[I.A]; break;
      default: break;
      }
      Stack.release(A.Mark);
      Fn = A.Fn;
      Code = Fn->Code.data();
      Pc = A.Resume;
      R = A.Regs;
      Calls.pop_back();
      break;
    }
    case Op::Fail:
      failWith(I.A);

    // --- intervals ---
    case Op::IvMov: R.V[I.A] = R.V[I.B]; break;
    case Op::IvAdd: R.V[I.A] = iAdd(R.V[I.B], R.V[I.C]); break;
    case Op::IvSub: R.V[I.A] = iSub(R.V[I.B], R.V[I.C]); break;
    case Op::IvMul: R.V[I.A] = iMul(R.V[I.B], R.V[I.C]); break;
    case Op::IvDiv: R.V[I.A] = iDiv(R.V[I.B], R.V[I.C]); break;
    case Op::IvNeg: R.V[I.A] = iNeg(R.V[I.B]); break;
    case Op::IvMin: R.V[I.A] = iMin(R.V[I.B], R.V[I.C]); break;
    case Op::IvMax: R.V[I.A] = iMax(R.V[I.B], R.V[I.C]); break;
    case Op::IvMath:
      R.V[I.A] = math(static_cast<MathOp>(I.X), R.V[I.B]);
      break;
    case Op::IvF32:
      R.V[I.A] = Interval32::fromInterval(R.V[I.B]).widen();
      break;
    case Op::IntToIv:
      R.V[I.A] = Interval::fromPoint(static_cast<double>(R.I[I.B]));
      break;
    case Op::IvCmp:
      R.T[I.A] = compare(static_cast<Cmp>(I.X), R.V[I.B], R.V[I.C]);
      break;
    case Op::IvSwap: std::swap(R.V[I.A], R.V[I.B]); break;
    case Op::IvHull: R.V[I.A] = iHull(R.V[I.A], R.V[I.B]); break;

    // --- integers ---
    case Op::IntMov: R.I[I.A] = R.I[I.B]; break;
    case Op::IntAdd:
      R.I[I.A] = wrap(static_cast<unsigned long long>(R.I[I.B]) +
                      static_cast<unsigned long long>(R.I[I.C]));
      break;
    case Op::IntSub:
      R.I[I.A] = wrap(static_cast<unsigned long long>(R.I[I.B]) -
                      static_cast<unsigned long long>(R.I[I.C]));
      break;
    case Op::IntMul:
      R.I[I.A] = wrap(static_cast<unsigned long long>(R.I[I.B]) *
                      static_cast<unsigned long long>(R.I[I.C]));
      break;
    case Op::IntBin:
      R.I[I.A] = intOp(static_cast<IntOp>(I.X), R.I[I.B], R.I[I.C]);
      break;
    case Op::IntCmp:
      R.I[I.A] = compare(static_cast<Cmp>(I.X), R.I[I.B], R.I[I.C]);
      break;
    case Op::IntNeg:
      R.I[I.A] = wrap(0 - static_cast<unsigned long long>(R.I[I.B]));
      break;
    case Op::IntLNot: R.I[I.A] = R.I[I.B] == 0; break;
    case Op::IntBitNot: R.I[I.A] = ~R.I[I.B]; break;
    case Op::IntTrunc:
      R.I[I.A] = I.X ? static_cast<long long>(static_cast<unsigned>(R.I[I.B]))
                     : static_cast<int>(R.I[I.B]);
      break;
    case Op::IntIncDec: {
      long long Old = R.I[I.B];
      long long New = wrap(static_cast<unsigned long long>(Old) +
                           ((I.X & 2) ? 1ull : ~0ull));
      R.I[I.B] = New;
      R.I[I.A] = (I.X & 1) ? New : Old;
      break;
    }
    case Op::IntNZ: R.I[I.A] = R.I[I.B] != 0; break;

    // --- TBools ---
    case Op::TbMov: R.T[I.A] = R.T[I.B]; break;
    case Op::TbNot: R.T[I.A] = tboolNot(R.T[I.B]); break;
    case Op::TbAnd: R.T[I.A] = tboolAnd(R.T[I.B], R.T[I.C]); break;
    case Op::TbOr: R.T[I.A] = tboolOr(R.T[I.B], R.T[I.C]); break;
    case Op::IntToTb: R.T[I.A] = tboolFromBool(R.I[I.B] != 0); break;
    case Op::TbCvt:
      if (R.T[I.B] == TBool::Unknown)
        unknownAt(I.C);
      R.I[I.A] = R.T[I.B] == TBool::True;
      break;

    // --- pointers and memory ---
    case Op::PtrMov: R.P[I.A] = R.P[I.B]; break;
    case Op::PtrOff: {
      PtrReg P = R.P[I.B];
      unsigned long long D = static_cast<unsigned long long>(R.I[I.C]);
      P.Off = wrap(static_cast<unsigned long long>(P.Off) + (I.X ? 0 - D : D));
      R.P[I.A] = P;
      break;
    }
    case Op::Index: {
      const PtrReg &P = R.P[I.B];
      R.V[I.A] = P.Base[checkedIndex(P, R.I[I.C])];
      break;
    }
    case Op::Lea: R.I[I.A] = checkedIndex(R.P[I.B], R.I[I.C]); break;
    case Op::LoadAt: R.V[I.A] = R.P[I.B].Base[R.I[I.C]]; break;
    case Op::StoreAt: R.P[I.A].Base[R.I[I.B]] = R.V[I.C]; break;
    case Op::AddrIv: R.P[I.A] = PtrReg{&R.V[I.B], 1, 0}; break;
    case Op::AddrAt:
      // A borrowed one-element view; AOT has the same UB edge.
      R.P[I.A] = PtrReg{&R.P[I.B].Base[R.I[I.C]], 1, 0};
      break;
    case Op::ArrDecl: {
      // A fresh zeroed array per execution of the declaration. The
      // storage is the frame's: the first execution allocates it.
      PtrReg &P = R.P[I.A];
      long long N = R.I[I.B];
      if (N < 0 || static_cast<unsigned long long>(N) >
                       ~size_t(0) / sizeof(Interval))
        throw std::bad_alloc();
      if (!P.Base)
        P.Base = static_cast<Interval *>(Stack.alloc(N * sizeof(Interval)));
      std::fill_n(P.Base, N, Interval::fromPoint(0.0));
      P.Size = N;
      P.Off = 0;
      break;
    }

    // --- reductions ---
    case Op::AccInit: R.Acc[I.A].init(R.V[I.B]); break;
    case Op::AccAdd:
      R.Acc[I.A].accumulate(I.X ? iNeg(R.V[I.B]) : R.V[I.B]);
      break;
    case Op::AccReduce: R.V[I.A] = R.Acc[I.B].reduce(); break;
    }
  }
}

EvalResult Machine::run(const std::string &Function,
                        const std::vector<EvalArg> &Args) {
  EvalResult R;
  try {
    const FunctionCode *Fn = M.find(Function);
    if (!Fn)
      fail("no-such-function",
           "no defined function '" + Function + "' in this program");
    if (Fn->Params.size() != Args.size())
      fail("bad-argument",
           "function '" + Function + "' takes " +
               std::to_string(Fn->Params.size()) + " arguments, got " +
               std::to_string(Args.size()));

    // Array arguments are copied into the result up front and mutated in
    // place, so outputs fall out for free and the caller's request
    // object stays untouched.
    for (const EvalArg &A : Args)
      if (A.K == EvalArg::Kind::Array)
        R.ArrayOutputs.push_back(A.Elements);

    enterCall();
    // Harden prologue: a dirty FP environment on entry poisons an
    // interval-returning function to the whole line. The serve layer
    // already repaired the environment; only the outermost frame honors
    // the verdict (callees run under the now-sound environment, like AOT
    // code whose igen_fenv_check repaired on the way in).
    if (Opts.PoisonedEntry && Fn->Ret == Kind::Iv) {
      --Depth;
      R.HasReturn = true;
      R.Return = Interval::entire();
    } else {
      Frame F = newFrame(*Fn);
      size_t Array = 0;
      for (size_t I = 0; I < Args.size(); ++I) {
        const EvalArg &A = Args[I];
        const ParamSlot &P = Fn->Params[I];
        Interval Iv = A.K == EvalArg::Kind::Tolerance
                          ? Interval::fromPoint(A.Point)
                          : A.Scalar;
        Kind K = A.K == EvalArg::Kind::Int     ? Kind::Int
                 : A.K == EvalArg::Kind::Array ? Kind::Ptr
                                               : Kind::Iv;
        Failure Why;
        if (P.rejects(K, Iv.isPoint(), Why))
          fail(Why.Code, Why.Message);
        if (K == Kind::Int) {
          F.I[P.Reg] = A.IntValue;
        } else if (K == Kind::Ptr) {
          std::vector<Interval> &Out = R.ArrayOutputs[Array++];
          F.P[P.Reg] =
              PtrReg{Out.data(), static_cast<long long>(Out.size()), 0};
        } else {
          F.V[P.Reg] = Iv;
          if (P.T == ParamSlot::Takes::Tolerance)
            widen(P, F.V[P.Reg]);
        }
      }
      exec(Fn, F, R);
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
  if (!Prog.Eval) {
    EvalResult R;
    R.Error = {"unsupported", "program has no eval code"};
    return R;
  }
  return Machine(*Prog.Eval, Opts).run(Function, Args);
}

//===- workloads.cpp - Serve workloads: frames and expected outcomes ------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "kernels.h"

#include <functional>

using namespace pb;

//===----------------------------------------------------------------------===//
// Shared pieces
//===----------------------------------------------------------------------===//

Outcome Session::check(std::string_view Resp) {
  Outcome O;
  ResponseScan S(Resp);
  const Expect &E = Pending;
  if (!S.ok()) {
    std::string_view Code = S.errorCode();
    O.QueueFull = Code == "queue-full";
    O.Ok = !E.ErrCode.empty() && Code == E.ErrCode &&
           S.field("stage") == E.ErrStage;
    if (!O.Ok)
      O.Detail = "unexpected error: " + std::string(Resp.substr(0, 300));
    onAnswer(E, S, O.Ok);
    return O;
  }
  if (!E.ErrCode.empty()) {
    O.Detail = "expected " + E.ErrCode + ", got ok";
    onAnswer(E, S, false);
    return O;
  }
  if (E.Kind == Expect::Op::Eval) {
    std::vector<std::pair<double, double>> Ivs;
    if (E.Deferred) {
      if (!S.intervals(Ivs) || Ivs.size() != 1) {
        O.Detail = "expected one interval";
        onAnswer(E, S, false);
        return O;
      }
      O.Bits.push_back(accuracyBits(Ivs[0].first, Ivs[0].second));
      Deferred.push_back({E, Ivs[0].first, Ivs[0].second});
      O.Ok = true;
      onAnswer(E, S, true);
      return O;
    }
    if (!S.intervals(Ivs) || Ivs.size() != E.Values.size()) {
      O.Detail = "expected " + std::to_string(E.Values.size()) +
                 " intervals, got " + std::to_string(Ivs.size());
      onAnswer(E, S, false);
      return O;
    }
    O.Bits.reserve(Ivs.size());
    for (size_t I = 0; I < Ivs.size(); ++I) {
      if (!contains(Ivs[I].first, Ivs[I].second, E.Values[I])) {
        char Buf[160];
        quadmath_snprintf(Buf, sizeof(Buf), "%.36Qg", E.Values[I]);
        O.Violation = true;
        O.Detail = "containment violation at interval " +
                   std::to_string(I) + ": [" + decimalOf(Ivs[I].first) +
                   ", " + decimalOf(Ivs[I].second) + "] misses " + Buf;
        onAnswer(E, S, false);
        return O;
      }
      O.Bits.push_back(accuracyBits(Ivs[I].first, Ivs[I].second));
    }
  } else if (S.field("handle").size() != 16) {
    O.Detail = "compile answer without a handle";
    onAnswer(E, S, false);
    return O;
  }
  O.Ok = true;
  onAnswer(E, S, true);
  return O;
}

uint64_t Session::verifyDeferred(std::string &FirstFailure) {
  uint64_t Misses = 0;
  for (const DeferredCheck &D : Deferred) {
    std::vector<quad> At;
    for (const Box &B : D.E.Args)
      At.push_back(B.mid());
    quad V = D.E.Module->eval((int)D.E.Module->Fns.size() - 1, At);
    if (contains(D.Lo, D.Hi, V))
      continue;
    if (!Misses++ && FirstFailure.empty()) {
      char Buf[64];
      quadmath_snprintf(Buf, sizeof(Buf), "%.36Qg", V);
      FirstFailure = "containment violation: [" + decimalOf(D.Lo) + ", " +
                     decimalOf(D.Hi) + "] misses " + Buf + " for\n" +
                     D.E.Module->Source;
    }
  }
  Deferred.clear();
  return Misses;
}

namespace {

/// Spells one box the way real clients do, picking among the protocol's
/// argument forms: a bare number or {"hex"} (a point), {"lo","hi"} in
/// decimal, or {"lo_hex","hi_hex"}.
std::string spellBox(const Box &B, Rng &R) {
  bool Point = B.Lo == B.Hi;
  if (Point && R.chance(0.5))
    return decimalOf(B.Lo);
  if (Point)
    return "{\"hex\":\"" + hexOf(B.Lo) + "\"}";
  if (R.chance(0.5))
    return "{\"lo\":" + decimalOf(B.Lo) + ",\"hi\":" + decimalOf(B.Hi) + "}";
  return "{\"lo_hex\":\"" + hexOf(B.Lo) + "\",\"hi_hex\":\"" + hexOf(B.Hi) +
         "\"}";
}

/// A seeded box in [Lo, Hi): a point or 1-8 ulps wide.
Box drawBox(Rng &R, double Lo, double Hi) {
  double X = R.uniform(Lo, Hi);
  return ulpBox(X, R.chance(0.5) ? 0 : R.range(1, 8));
}

/// A box of relative width about 2^-\p Bits around a draw from [Lo, Hi).
Box relBox(Rng &R, double Lo, double Hi, int Bits) {
  double X = R.uniform(Lo, Hi);
  double W = std::ldexp(std::fabs(X), -Bits);
  return {X, X + W};
}

std::string evalFrame(uint64_t Id, const std::string &Handle,
                      const std::string &Fn, const std::string &Args,
                      const char *Options = nullptr) {
  std::string F = "{\"op\":\"eval\",\"id\":" + std::to_string(Id) +
                  ",\"handle\":\"" + Handle + "\",\"function\":\"" + Fn +
                  "\",\"args\":[" + Args + "]";
  if (Options)
    F += std::string(",\"options\":") + Options;
  return F + ",\"deadline_ms\":30000}";
}

std::string compileFrame(const char *Source, const std::string &Options) {
  std::string F = "{\"op\":\"compile\",\"source\":\"";
  for (const char *P = Source; *P; ++P) {
    if (*P == '\n')
      F += "\\n";
    else if (*P == '"' || *P == '\\')
      F += std::string("\\") + *P;
    else
      F += *P;
  }
  return F + "\",\"options\":" + Options + "}";
}

std::vector<quad> mids(const std::vector<Box> &Bs) {
  std::vector<quad> Out;
  Out.reserve(Bs.size());
  for (const Box &B : Bs)
    Out.push_back(B.mid());
  return Out;
}

template <typename T> AVec<T> midsAs(const std::vector<Box> &Bs) {
  AVec<T> Out;
  for (const Box &B : Bs)
    Out.push_back((T)B.mid());
  return Out;
}

/// Handle placeholder in pooled frames until bind() learns the real one.
const std::string NoHandle(16, '0');

/// Sessions of the two resident-module workloads: round-robin over a
/// schedule of kernels with seeded arguments. The frames and their oracle values are
/// computed up front into a pool the session then cycles through, so
/// the client does no oracle arithmetic while it is timing.
class ResidentSession : public Session {
public:
  /// Fills \p E for kernel \p Kernel; returns the frame.
  using FrameMaker = std::string (*)(uint64_t Id, int Kernel, Rng &,
                                     Expect &E);
  ResidentSession(const std::vector<int> &Schedule, int PoolSize,
                  uint64_t Seed, int Conn, FrameMaker Make) {
    Rng R(streamSeed(Seed, Conn));
    for (int I = 0; I < PoolSize; ++I) {
      Expect E;
      E.Kind = Expect::Op::Eval;
      E.Kernel = Schedule[(size_t)I % Schedule.size()];
      std::string F = Make(((uint64_t)Conn << 40) + I, E.Kernel, R, E);
      Pool.push_back({std::move(F), std::move(E)});
    }
  }
  void bind(const std::string &Handle) override {
    const std::string Key = "\"handle\":\"" + NoHandle;
    for (auto &[F, E] : Pool)
      F.replace(F.find(Key) + Key.size() - NoHandle.size(), NoHandle.size(),
                Handle);
  }

protected:
  bool build(std::string &Frame, Expect &E) override {
    const auto &[F, X] = Pool[Next++ % Pool.size()];
    Frame = F;
    E = X;
    return true;
  }

private:
  std::vector<std::pair<std::string, Expect>> Pool;
  uint64_t Next = 0;
};

//===----------------------------------------------------------------------===//
// eval-array
//===----------------------------------------------------------------------===//

class EvalArray : public Workload {
public:
  explicit EvalArray(uint64_t Seed) : Seed(Seed) {
    Connections = 2;
    Warmup = 200;
    for (int Size : {64, 256})
      for (const char *K : {"dot", "axpy", "nrm2sq", "gemv_row"})
        Kernels.push_back(std::string(K) + std::to_string(Size));
    // Three of every four frames are 64-element ones: with the two sizes
    // half and half, the median round trip would fall in the gap between
    // their clusters and jump with the clusters' tails.
    for (int Round = 0; Round < 4; ++Round)
      for (int K = 0; K < 4; ++K)
        Schedule.push_back(Round < 3 ? K : K + 4);
  }
  std::vector<std::string> setupFrames() const override {
    return {compileFrame(ArrayModuleSource, "{}")};
  }
  static int sizeOf(int K) { return K < 4 ? 64 : 256; }

  std::unique_ptr<Session> session(int Conn) const override {
    return std::make_unique<ResidentSession>(Schedule, 64, Seed, Conn,
                                             &buildFrame);
  }

  static std::string buildFrame(uint64_t Id, int K, Rng &R, Expect &E) {
    return evalFrame(Id, NoHandle, fnName(K), buildArgs(K, R, E));
  }
  static std::string fnName(int K) {
    static const char *Names[] = {"dot", "axpy", "nrm2sq", "gemv_row"};
    return Names[K % 4];
  }

  static std::string buildArgs(int K, Rng &R, Expect &E) {
    const int N = sizeOf(K);
    auto Arr = [&](int Len) {
      std::vector<Box> V(Len);
      for (Box &B : V)
        B = drawBox(R, -1.0, 1.0);
      return V;
    };
    auto Spell = [&](const std::vector<Box> &V) {
      std::string A = "{\"array\":[";
      for (size_t I = 0; I < V.size(); ++I)
        A += (I ? "," : "") + spellBox(V[I], R);
      return A + "]}";
    };
    std::string In = "{\"int\":" + std::to_string(N) + "}";
    E.Args.clear();
    switch (K % 4) {
    case 0: { // dot(a, b, n)
      std::vector<Box> A = Arr(N), B = Arr(N);
      std::vector<quad> Qa = mids(A), Qb = mids(B);
      E.Values = {dotRef(Qa.data(), Qb.data(), N)};
      E.Values.insert(E.Values.end(), Qa.begin(), Qa.end());
      E.Values.insert(E.Values.end(), Qb.begin(), Qb.end());
      E.Args = A;
      E.Args.insert(E.Args.end(), B.begin(), B.end());
      return Spell(A) + "," + Spell(B) + "," + In;
    }
    case 1: { // axpy(alpha, x, y, n)
      Box Alpha = relBox(R, -2.0, 2.0, 45);
      std::vector<Box> X = Arr(N), Y = Arr(N);
      std::vector<quad> Qx = mids(X), Qy = mids(Y);
      axpyRef(Alpha.mid(), Qx.data(), Qy.data(), N);
      E.Values = Qx;
      E.Values.insert(E.Values.end(), Qy.begin(), Qy.end());
      E.Args = {Alpha};
      E.Args.insert(E.Args.end(), X.begin(), X.end());
      E.Args.insert(E.Args.end(), Y.begin(), Y.end());
      return spellBox(Alpha, R) + "," + Spell(X) + "," + Spell(Y) + "," + In;
    }
    case 2: { // nrm2sq(x, n)
      std::vector<Box> X = Arr(N);
      std::vector<quad> Qx = mids(X);
      E.Values = {nrm2sqRef(Qx.data(), N)};
      E.Values.insert(E.Values.end(), Qx.begin(), Qx.end());
      E.Args = X;
      return Spell(X) + "," + In;
    }
    default: { // gemv_row(A, x, y, m, n): 4 rows, N elements of A
      const int M = 4, Cols = N / M;
      std::vector<Box> A = Arr(N), X = Arr(Cols), Y = Arr(M);
      std::vector<quad> Qa = mids(A), Qx = mids(X), Qy = mids(Y);
      gemvRowRef(Qa.data(), Qx.data(), Qy.data(), M, Cols);
      E.Values = Qa;
      E.Values.insert(E.Values.end(), Qx.begin(), Qx.end());
      E.Values.insert(E.Values.end(), Qy.begin(), Qy.end());
      E.Args = A;
      E.Args.insert(E.Args.end(), X.begin(), X.end());
      E.Args.insert(E.Args.end(), Y.begin(), Y.end());
      return Spell(A) + "," + Spell(X) + "," + Spell(Y) + ",{\"int\":" +
             std::to_string(M) + "},{\"int\":" + std::to_string(Cols) + "}";
    }
    }
  }

  template <typename T> static void run(const Expect &E, AVec<T> &V, int N) {
    volatile T Sink;
    switch (E.Kernel % 4) {
    case 0:
      Sink = dotRef(V.data(), V.data() + N, N);
      break;
    case 1:
      axpyRef(V[0], V.data() + 1, V.data() + 1 + N, N);
      Sink = V[1 + N];
      break;
    case 2:
      Sink = nrm2sqRef(V.data(), N);
      break;
    default:
      gemvRowRef(V.data(), V.data() + N, V.data() + N + N / 4, 4, N / 4);
      Sink = V[N + N / 4];
      break;
    }
    (void)Sink;
  }

  std::function<void()> nativeCall(const Expect &E) const override {
    int N = sizeOf(E.Kernel);
    return [E, N, V = midsAs<double>(E.Args)]() mutable { run(E, V, N); };
  }

private:
  uint64_t Seed;
  std::vector<int> Schedule;
};

//===----------------------------------------------------------------------===//
// eval-scalar
//===----------------------------------------------------------------------===//

/// Loop lengths of the scalar kernels: 10^3-10^4 interval operations per
/// request, and results that stay finite (henon's iteration count bounds
/// the growth of its enclosures).
constexpr int NewtonN = 300, HenonN = 24, HenonM = 24, PieceN = 400,
              ElemN = 150, RedN = 1500;

class EvalScalar : public Workload {
public:
  explicit EvalScalar(uint64_t Seed) : Seed(Seed) {
    Connections = 3;
    Warmup = 500;
    Kernels = {"newton", "henon", "piece", "elem", "red"};
    Schedule = {0, 1, 2, 3, 4};
  }
  std::vector<std::string> setupFrames() const override {
    return {compileFrame(ScalarModuleSource, "{}")};
  }
  std::unique_ptr<Session> session(int Conn) const override {
    return std::make_unique<ResidentSession>(Schedule, 200, Seed, Conn,
                                             &buildFrame);
  }

  static std::string intArg(int N) {
    return "{\"int\":" + std::to_string(N) + "}";
  }

  /// Every frame carries a generous deadline_ms, as deadline-aware
  /// clients send; piece asks for the join branch policy and red for the
  /// reduction transformation per request.
  static std::string buildFrame(uint64_t Id, int K, Rng &R, Expect &E) {
    switch (K) {
    case 0: {
      Box A = relBox(R, 1.0, 4.0, 40), X0 = {1.0, 1.0};
      E.Args = {A, X0};
      E.Values = {newtonRef(A.mid(), X0.mid(), NewtonN)};
      return evalFrame(Id, NoHandle, "newton",
                       spellBox(A, R) + "," + spellBox(X0, R) + "," +
                           intArg(NewtonN));
    }
    case 1: {
      Box X0 = drawBox(R, -0.2, 0.2), Y0 = drawBox(R, -0.2, 0.2);
      E.Args = {X0, Y0};
      E.Values = {henonRef(X0.mid(), Y0.mid(), HenonN, HenonM)};
      return evalFrame(Id, NoHandle, "henon",
                       spellBox(X0, R) + "," + spellBox(Y0, R) + "," +
                           intArg(HenonN) + "," + intArg(HenonM));
    }
    case 2: {
      Box X = relBox(R, 0.2, 1.0, 30);
      E.Args = {X};
      E.Values = {pieceRef(X.mid(), PieceN)};
      return evalFrame(Id, NoHandle, "piece",
                       spellBox(X, R) + "," + intArg(PieceN),
                       "{\"branch\":\"join\"}");
    }
    case 3: {
      Box X = relBox(R, 0.1, 2.0, 40);
      E.Args = {X};
      E.Values = {elemRef(X.mid(), ElemN)};
      return evalFrame(Id, NoHandle, "elem",
                       spellBox(X, R) + "," + intArg(ElemN));
    }
    default: {
      Box X = relBox(R, 0.1, 1.0, 40), H = {0.0009765625, 0.0009765625};
      E.Args = {X, H};
      E.Values = {redRef(X.mid(), H.mid(), RedN)};
      return evalFrame(Id, NoHandle, "red",
                       spellBox(X, R) + "," + spellBox(H, R) + "," +
                           intArg(RedN),
                       "{\"reductions\":true}");
    }
    }
  }

  template <typename T> static T run(int Kernel, const AVec<T> &A) {
    switch (Kernel) {
    case 0:
      return newtonRef(A[0], A[1], NewtonN);
    case 1:
      return henonRef(A[0], A[1], HenonN, HenonM);
    case 2:
      return pieceRef(A[0], PieceN);
    case 3:
      return elemRef(A[0], ElemN);
    default:
      return redRef(A[0], A[1], RedN);
    }
  }

  std::function<void()> nativeCall(const Expect &E) const override {
    return [K = E.Kernel, V = midsAs<double>(E.Args)] {
      volatile double Sink = run(K, V);
      (void)Sink;
    };
  }

private:
  uint64_t Seed;
  std::vector<int> Schedule;
};

//===----------------------------------------------------------------------===//
// compile-churn
//===----------------------------------------------------------------------===//

class ChurnSession : public Session {
public:
  ChurnSession(uint64_t Seed, int Conn)
      : R(streamSeed(Seed, 1000 + Conn)), Id((uint64_t)Conn << 40) {}

protected:
  bool build(std::string &Frame, Expect &E) override {
    if (AwaitHandle)
      return false;
    if (EvalOf) {
      const GenModule &M = *EvalOf;
      int Fn = (int)M.Fns.size() - 1;
      E.Kind = Expect::Op::Eval;
      E.Kernel = 3;
      E.Module = EvalOf;
      E.Deferred = true;
      std::string Args;
      for (int P = 0; P < M.NumParams; ++P) {
        Box B = ulpBox(R.uniform(0.5, 2.0), R.range(0, 16));
        E.Args.push_back(B);
        Args += (P ? "," : "") + spellBox(B, R);
      }
      Frame = evalFrame(Id++, Handle, GenModule::fnName(Fn), Args);
      EvalOf.reset();
      return true;
    }
    // Most modules are new (misses). A repeat is usually one of the
    // session's last 16 valid modules (still resident: a hit), sometimes
    // one of its last 160 (the two sessions' 320 exceed the daemon's
    // 64-entry cache, so these were often evicted and compile again).
    std::shared_ptr<const GenModule> M;
    if (!Recent.empty() && R.chance(0.3)) {
      int Window = std::min<int>((int)Recent.size(), R.chance(0.7) ? 16 : 160);
      M = Recent[Recent.size() - 1 - R.range(0, Window - 1)];
    } else {
      M = std::make_shared<const GenModule>(generateModule(R));
      if (M->Bad == GenModule::Invalid::None) {
        Recent.push_back(M);
        if (Recent.size() > 160)
          Recent.pop_front();
      }
    }
    E.Kind = Expect::Op::Compile;
    E.Module = M;
    E.Kernel = M->Bad != GenModule::Invalid::None ? 2 : M->Dd ? 1 : 0;
    if (M->Bad == GenModule::Invalid::Parse) {
      E.ErrCode = "parse-error";
      E.ErrStage = "parse";
    } else if (M->Bad == GenModule::Invalid::Sema) {
      E.ErrCode = "sema-error";
      E.ErrStage = "sema";
    }
    Frame = compileFrame(M->Source.c_str(), M->optionsJson());
    Frame.insert(1, "\"id\":" + std::to_string(Id++) + ",");
    AwaitHandle = M->evaluable();
    return true;
  }

  bool followUpPending() const override { return EvalOf != nullptr; }

  void onAnswer(const Expect &E, const ResponseScan &S, bool Ok) override {
    if (E.Kind != Expect::Op::Compile || !E.Module->evaluable())
      return;
    AwaitHandle = false;
    if (Ok) {
      Handle = std::string(S.field("handle"));
      EvalOf = E.Module;
    }
  }

private:
  Rng R;
  uint64_t Id;
  std::deque<std::shared_ptr<const GenModule>> Recent;
  bool AwaitHandle = false;
  std::shared_ptr<const GenModule> EvalOf;
  std::string Handle;
};

class CompileChurn : public Workload {
public:
  explicit CompileChurn(uint64_t Seed) : Seed(Seed) {
    Connections = 2;
    Warmup = 1000;
    Kernels = {"compile-f64", "compile-dd", "compile-invalid", "eval"};
  }
  std::unique_ptr<Session> session(int Conn) const override {
    return std::make_unique<ChurnSession>(Seed, Conn);
  }
  std::function<void()> nativeCall(const Expect &E) const override {
    int Fn = (int)E.Module->Fns.size() - 1;
    return [M = E.Module, Fn, A = midsAs<double>(E.Args)] {
      volatile double Sink = M->eval(Fn, A);
      (void)Sink;
    };
  }

private:
  uint64_t Seed;
};

} // namespace

std::unique_ptr<Workload> pb::makeServeWorkload(const std::string &Name,
                                                uint64_t Seed) {
  if (Name == "eval-array")
    return std::make_unique<EvalArray>(Seed);
  if (Name == "eval-scalar")
    return std::make_unique<EvalScalar>(Seed);
  if (Name == "compile-churn")
    return std::make_unique<CompileChurn>(Seed);
  return nullptr;
}

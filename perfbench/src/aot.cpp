//===- aot.cpp - Generated kernels against their native builds ------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The aot-kernels workload's runner. run.py has already translated the
// kernels with the commit's igen and built the output, and the native
// kernels, with the host compiler into shared libraries. This runner
// loads them, feeds every configuration seeded inputs (ulp-wide boxes
// around random points), checks every output of every generated call
// against the binary128 oracle at the box midpoints, and times the
// generated code (under upward rounding) against the native build of the
// same source (under round-to-nearest), round-robin over all
// configurations until the time is up.
//
//===----------------------------------------------------------------------===//

#include "commands.h"
#include "kernels.h"

#include "interval/DdSimd.h"
#include "interval/IntervalSimd.h"
#include "interval/Rounding.h"

#include <dlfcn.h>
#include <x86intrin.h>

#include <functional>
#include <map>
#include <memory>

using namespace pb;
using igen::DdIntervalAvx;
using igen::IntervalSse;

namespace {

struct Iv {
  quad Lo, Hi;
  double Bits;
};

Iv ivOf(const IntervalSse &X) {
  igen::Interval I = X.toInterval();
  return {(quad)I.lo(), (quad)I.hi(), pb::accuracyBits(I.lo(), I.hi())};
}

Iv ivOf(const DdIntervalAvx &X) {
  igen::DdInterval D = X.toScalar();
  igen::Dd L = D.lo(), H = D.hi();
  return {(quad)L.H + (quad)L.L, (quad)H.H + (quad)H.L,
          igen::accuracyBits(D)};
}

/// Interval inputs: the box [x, nextUp(x)] around each point.
template <typename IV> AVec<IV> boxes(const AVec<double> &X) {
  AVec<IV> Out;
  Out.reserve(X.size());
  for (double V : X)
    Out.push_back(IV::fromEndpoints(V, std::nextafter(V, INFINITY)));
  return Out;
}

std::vector<quad> boxMids(const AVec<double> &X) {
  std::vector<quad> Out;
  Out.reserve(X.size());
  for (double V : X)
    Out.push_back(ulpBox(V, 1).mid());
  return Out;
}

AVec<double> uniform(Rng &R, size_t N, double Lo, double Hi) {
  AVec<double> V(N);
  for (double &X : V)
    X = R.uniform(Lo, Hi);
  return V;
}

/// One (kernel, configuration): native and generated calls on the same
/// inputs, plus the oracle for the generated call's outputs.
class Case {
public:
  virtual ~Case() = default;
  std::string Kernel, Prec;
  std::vector<quad> Oracle;
  virtual void reset() = 0;  ///< restores both input states
  virtual void native() = 0; ///< runs the native build
  virtual void gen() = 0;    ///< runs the igen build
  virtual void outputs(std::vector<Iv> &Out) const = 0;

  std::vector<double> NatCycles, GenCycles, GenUs;
  uint64_t Checked = 0, Failed = 0, Violations = 0;
  double BitsSum = 0;
  uint64_t BitsCount = 0;
  std::string FirstFailure;
};

/// The kernel \p Name of \p Lib, through the pb_sym_<Name> accessor
/// run.py appends to every translation unit (the kernels themselves have
/// C++ linkage).
template <typename Fn> Fn sym(void *Lib, const std::string &Name) {
  void *Get = dlsym(Lib, ("pb_sym_" + Name).c_str());
  if (!Get)
    throw std::runtime_error("missing kernel symbol " + Name);
  return reinterpret_cast<Fn>(reinterpret_cast<void *(*)()>(Get)());
}

//===----------------------------------------------------------------------===//
// The kernels (Table V sizes)
//===----------------------------------------------------------------------===//

template <typename IV> class FftCase : public Case {
  using GenFn = void (*)(IV *, IV *, IV *, IV *, int *, int);
  using NatFn = void (*)(double *, double *, const double *, const double *,
                         int *, int);
  static constexpr int N = 64;
  GenFn G;
  NatFn F;
  AVec<double> Re0, Im0, Re, Im, Wre, Wim;
  AVec<int> Rev, RevCopy;
  AVec<IV> IRe0, IIm0, IRe, IIm, IWre, IWim;

public:
  FftCase(void *GLib, const std::string &GName, void *NLib,
          const std::string &NName, Rng &R)
      : G(sym<GenFn>(GLib, GName)), F(sym<NatFn>(NLib, NName)) {
    int LogN = 0;
    while ((1 << LogN) < N)
      ++LogN;
    for (int I = 0; I < N; ++I) {
      int V = 0;
      for (int B = 0; B < LogN; ++B)
        if (I & (1 << B))
          V |= 1 << (LogN - 1 - B);
      Rev.push_back(V);
    }
    for (int Len = 2; Len <= N; Len <<= 1)
      for (int J = 0; J < Len / 2; ++J) {
        quad Ang = -2 * acosq(-1) * J / Len;
        Wre.push_back((double)cosq(Ang));
        Wim.push_back((double)sinq(Ang));
      }
    Re0 = uniform(R, N, -1, 1);
    Im0 = uniform(R, N, -1, 1);
    IRe0 = boxes<IV>(Re0);
    IIm0 = boxes<IV>(Im0);
    for (size_t K = 0; K < Wre.size(); ++K) {
      IWre.push_back(IV::fromPoint(Wre[K]));
      IWim.push_back(IV::fromPoint(Wim[K]));
    }
    std::vector<quad> QRe = boxMids(Re0), QIm = boxMids(Im0);
    std::vector<quad> QWre(Wre.begin(), Wre.end()), QWim(Wim.begin(), Wim.end());
    fftRef(QRe.data(), QIm.data(), QWre.data(), QWim.data(), Rev.data(), N);
    Oracle = QRe;
    Oracle.insert(Oracle.end(), QIm.begin(), QIm.end());
  }
  void reset() override {
    Re = Re0;
    Im = Im0;
    IRe = IRe0;
    IIm = IIm0;
    RevCopy = Rev;
  }
  void native() override {
    F(Re.data(), Im.data(), Wre.data(), Wim.data(), RevCopy.data(), N);
  }
  void gen() override {
    G(IRe.data(), IIm.data(), IWre.data(), IWim.data(), RevCopy.data(), N);
  }
  void outputs(std::vector<Iv> &Out) const override {
    for (const IV &X : IRe)
      Out.push_back(ivOf(X));
    for (const IV &X : IIm)
      Out.push_back(ivOf(X));
  }
};

template <typename IV> class GemmCase : public Case {
  using GenFn = void (*)(IV *, IV *, IV *, int);
  using NatFn = void (*)(double *, const double *, const double *, int);
  static constexpr int N = 120;
  GenFn G;
  NatFn F;
  AVec<double> A, B, C0, C;
  AVec<IV> IA, IB, IC0, IC;

public:
  GemmCase(void *GLib, const std::string &GName, void *NLib,
           const std::string &NName, Rng &R)
      : G(sym<GenFn>(GLib, GName)), F(sym<NatFn>(NLib, NName)) {
    A = uniform(R, N * N, -1, 1);
    B = uniform(R, N * N, -1, 1);
    C0 = uniform(R, N * N, -1, 1);
    IA = boxes<IV>(A);
    IB = boxes<IV>(B);
    IC0 = boxes<IV>(C0);
    std::vector<quad> QA = boxMids(A), QB = boxMids(B);
    Oracle = boxMids(C0);
    gemmRef(Oracle.data(), QA.data(), QB.data(), N);
  }
  void reset() override {
    C = C0;
    IC = IC0;
  }
  void native() override { F(C.data(), A.data(), B.data(), N); }
  void gen() override { G(IC.data(), IA.data(), IB.data(), N); }
  void outputs(std::vector<Iv> &Out) const override {
    for (const IV &X : IC)
      Out.push_back(ivOf(X));
  }
};

template <typename IV> class PotrfCase : public Case {
  using GenFn = void (*)(IV *, int);
  using NatFn = void (*)(double *, int);
  static constexpr int N = 124;
  GenFn G;
  NatFn F;
  AVec<double> A0, A;
  AVec<IV> IA0, IA;

public:
  PotrfCase(void *GLib, const std::string &GName, void *NLib,
            const std::string &NName, Rng &R)
      : G(sym<GenFn>(GLib, GName)), F(sym<NatFn>(NLib, NName)) {
    // Symmetric positive definite: B*B^T + N*I.
    AVec<double> Bm = uniform(R, N * N, -1, 1);
    A0.assign(N * N, 0.0);
    for (int I = 0; I < N; ++I)
      for (int J = 0; J <= I; ++J) {
        double S = 0;
        for (int K = 0; K < N; ++K)
          S += Bm[I * N + K] * Bm[J * N + K];
        A0[I * N + J] = A0[J * N + I] = S + (I == J ? N : 0);
      }
    IA0 = boxes<IV>(A0);
    Oracle = boxMids(A0);
    potrfRef(Oracle.data(), N);
  }
  void reset() override {
    A = A0;
    IA = IA0;
  }
  void native() override { F(A.data(), N); }
  void gen() override { G(IA.data(), N); }
  void outputs(std::vector<Iv> &Out) const override {
    for (const IV &X : IA)
      Out.push_back(ivOf(X));
  }
};

template <typename IV> class FfnnCase : public Case {
  using GenFn = void (*)(IV *, IV *, IV *, IV *, int, int);
  using NatFn = void (*)(const double *, const double *, double *, double *,
                         int, int);
  static constexpr int N = 104, Layers = 9;
  GenFn G;
  NatFn F;
  AVec<double> W, B, In, B0, B1;
  AVec<IV> IW, IB, IIn, I0, I1;

public:
  FfnnCase(void *GLib, const std::string &GName, void *NLib,
           const std::string &NName, Rng &R)
      : G(sym<GenFn>(GLib, GName)), F(sym<NatFn>(NLib, NName)) {
    double Scale = 1.0 / std::sqrt((double)N);
    W = uniform(R, Layers * N * N, -Scale, Scale);
    B = uniform(R, Layers * N, -0.1, 0.1);
    In = uniform(R, N, 0.0, 1.0);
    IW = boxes<IV>(W);
    IB = boxes<IV>(B);
    IIn = boxes<IV>(In);
    std::vector<quad> QW = boxMids(W), QB = boxMids(B);
    Oracle = boxMids(In);
    std::vector<quad> Tmp(N);
    ffnnRef(QW.data(), QB.data(), Oracle.data(), Tmp.data(), N, Layers);
    B1.resize(N);
    I1.resize(N);
  }
  void reset() override {
    B0 = In;
    I0 = IIn;
  }
  void native() override {
    F(W.data(), B.data(), B0.data(), B1.data(), N, Layers);
  }
  void gen() override {
    G(IW.data(), IB.data(), I0.data(), I1.data(), N, Layers);
  }
  void outputs(std::vector<Iv> &Out) const override {
    for (const IV &X : I0)
      Out.push_back(ivOf(X));
  }
};

template <typename IV> class MvmCase : public Case {
  using GenFn = void (*)(IV *, IV *, IV *, int, int);
  using NatFn = void (*)(const double *, const double *, double *, int, int);
  static constexpr int M = 400, N = 400;
  GenFn G;
  NatFn F;
  AVec<double> A, X, Y0, Y;
  AVec<IV> IA, IX, IY0, IY;

public:
  MvmCase(void *GLib, const std::string &GName, void *NLib,
          const std::string &NName, Rng &R)
      : G(sym<GenFn>(GLib, GName)), F(sym<NatFn>(NLib, NName)) {
    A = uniform(R, M * N, -1, 1);
    X = uniform(R, N, -1, 1);
    Y0 = uniform(R, M, -1, 1);
    IA = boxes<IV>(A);
    IX = boxes<IV>(X);
    IY0 = boxes<IV>(Y0);
    std::vector<quad> QA = boxMids(A), QX = boxMids(X);
    Oracle = boxMids(Y0);
    mvmRef(QA.data(), QX.data(), Oracle.data(), M, N);
  }
  void reset() override {
    Y = Y0;
    IY = IY0;
  }
  void native() override { F(A.data(), X.data(), Y.data(), M, N); }
  void gen() override { G(IA.data(), IX.data(), IY.data(), M, N); }
  void outputs(std::vector<Iv> &Out) const override {
    for (const IV &V : IY)
      Out.push_back(ivOf(V));
  }
};

template <typename IV> class HenonCase : public Case {
  using GenFn = IV (*)(IV, IV, int);
  using NatFn = double (*)(double, double, int);
  static constexpr int Points = 256, Iters = 40;
  GenFn G;
  NatFn F;
  AVec<double> X, Y, NOut;
  AVec<IV> IX, IY, IOut;

public:
  HenonCase(void *GLib, const std::string &GName, void *NLib,
            const std::string &NName, Rng &R)
      : G(sym<GenFn>(GLib, GName)), F(sym<NatFn>(NLib, NName)) {
    X = uniform(R, Points, -0.5, 0.5);
    Y = uniform(R, Points, -0.5, 0.5);
    IX = boxes<IV>(X);
    IY = boxes<IV>(Y);
    std::vector<quad> QX = boxMids(X), QY = boxMids(Y);
    for (int P = 0; P < Points; ++P)
      Oracle.push_back(henonKernelRef(QX[P], QY[P], Iters));
    NOut.resize(Points);
    IOut.resize(Points);
  }
  void reset() override {}
  void native() override {
    for (int P = 0; P < Points; ++P)
      NOut[P] = F(X[P], Y[P], Iters);
  }
  void gen() override {
    for (int P = 0; P < Points; ++P)
      IOut[P] = G(IX[P], IY[P], Iters);
  }
  void outputs(std::vector<Iv> &Out) const override {
    for (const IV &V : IOut)
      Out.push_back(ivOf(V));
  }
};

class HornerCase : public Case {
  using GenFn = IntervalSse (*)(IntervalSse *, IntervalSse, int);
  using NatFn = double (*)(const double *, double, int);
  static constexpr int D = 30, Points = 2048;
  GenFn G;
  NatFn F;
  AVec<double> Coef, X, NOut;
  AVec<IntervalSse> ICoef, IX, IOut;

public:
  HornerCase(void *GLib, const std::string &GName, void *NLib,
             const std::string &NName, Rng &R)
      : G(sym<GenFn>(GLib, GName)), F(sym<NatFn>(NLib, NName)) {
    Coef = uniform(R, D + 1, -2.0, 2.0);
    X = uniform(R, Points, 0.001, 1.5);
    ICoef = boxes<IntervalSse>(Coef);
    IX = boxes<IntervalSse>(X);
    std::vector<quad> QC = boxMids(Coef), QX = boxMids(X);
    for (quad V : QX)
      Oracle.push_back(hornerRef(QC.data(), V, D));
    NOut.resize(Points);
    IOut.resize(Points);
  }
  void reset() override {}
  void native() override {
    for (int P = 0; P < Points; ++P)
      NOut[P] = F(Coef.data(), X[P], D);
  }
  void gen() override {
    for (int P = 0; P < Points; ++P)
      IOut[P] = G(ICoef.data(), IX[P], D);
  }
  void outputs(std::vector<Iv> &Out) const override {
    for (const IntervalSse &V : IOut)
      Out.push_back(ivOf(V));
  }
};

/// pade and gauss: (xs, out, n) -> sum.
template <bool Gauss> class PointwiseCase : public Case {
  using GenFn = IntervalSse (*)(IntervalSse *, IntervalSse *, int);
  using NatFn = double (*)(const double *, double *, int);
  static constexpr int N = 8192;
  GenFn G;
  NatFn F;
  AVec<double> X, NOut;
  AVec<IntervalSse> IX, IOut;
  IntervalSse ISum;

public:
  PointwiseCase(void *GLib, const std::string &GName, void *NLib,
                const std::string &NName, Rng &R)
      : G(sym<GenFn>(GLib, GName)), F(sym<NatFn>(NLib, NName)) {
    X = Gauss ? uniform(R, N, -3.0, 3.0) : uniform(R, N, 0.001, 50.0);
    IX = boxes<IntervalSse>(X);
    std::vector<quad> QX = boxMids(X), QOut(N);
    quad S = Gauss ? gaussRef(QX.data(), QOut.data(), N)
                   : padeRef(QX.data(), QOut.data(), N);
    Oracle = QOut;
    Oracle.push_back(S);
    NOut.resize(N);
    IOut.resize(N);
  }
  void reset() override {}
  void native() override {
    volatile double S = F(X.data(), NOut.data(), N);
    (void)S;
  }
  void gen() override { ISum = G(IX.data(), IOut.data(), N); }
  void outputs(std::vector<Iv> &Out) const override {
    for (const IntervalSse &V : IOut)
      Out.push_back(ivOf(V));
    Out.push_back(ivOf(ISum));
  }
};

class VmulCase : public Case {
  using GenFn = void (*)(IntervalSse *, IntervalSse *, IntervalSse *, int);
  using NatFn = void (*)(double *, double *, double *, int);
  static constexpr int N = 1 << 16;
  GenFn G;
  NatFn F;
  AVec<double> A, B, D;
  AVec<IntervalSse> IA, IB, ID;

public:
  VmulCase(void *GLib, const std::string &GName, void *NLib,
           const std::string &NName, Rng &R)
      : G(sym<GenFn>(GLib, GName)), F(sym<NatFn>(NLib, NName)) {
    A = uniform(R, N, -4.0, 4.0);
    B = uniform(R, N, -4.0, 4.0);
    IA = boxes<IntervalSse>(A);
    IB = boxes<IntervalSse>(B);
    std::vector<quad> QA = boxMids(A), QB = boxMids(B);
    Oracle.resize(N);
    vmulRef(Oracle.data(), QA.data(), QB.data(), N);
    D.resize(N);
    ID.resize(N);
  }
  void reset() override {}
  void native() override { F(D.data(), A.data(), B.data(), N); }
  void gen() override { G(ID.data(), IA.data(), IB.data(), N); }
  void outputs(std::vector<Iv> &Out) const override {
    for (const IntervalSse &V : ID)
      Out.push_back(ivOf(V));
  }
};

//===----------------------------------------------------------------------===//
// Runner
//===----------------------------------------------------------------------===//

struct Libs {
  void *F64 = nullptr, *Dd = nullptr, *Batch = nullptr, *Native = nullptr;
};

std::vector<std::unique_ptr<Case>> makeCases(const Libs &L, uint64_t Seed) {
  std::vector<std::unique_ptr<Case>> Cs;
  uint64_t Stream = 0;
  auto Add = [&](auto *Tag, const char *Kernel, const char *Prec,
                 void *GLib, const std::string &GName,
                 const std::string &NName) {
    using C = std::remove_pointer_t<decltype(Tag)>;
    Rng R(streamSeed(Seed, ++Stream));
    auto P = std::make_unique<C>(GLib, GName, L.Native, NName, R);
    P->Kernel = Kernel;
    P->Prec = Prec;
    Cs.push_back(std::move(P));
  };
  using S = IntervalSse;
  using D = DdIntervalAvx;
  // f64, default sv -O1; the _avx inputs are the vector-intrinsic
  // sources of the same kernels.
  Add((FftCase<S> *)nullptr, "fft", "f64", L.F64, "sv_fft", "base_fft");
  Add((FftCase<S> *)nullptr, "fft_avx", "f64", L.F64, "vv_fft", "basev_fft");
  Add((GemmCase<S> *)nullptr, "gemm", "f64", L.F64, "sv_gemm", "base_gemm");
  Add((GemmCase<S> *)nullptr, "gemm_avx", "f64", L.F64, "vv_gemm",
      "basev_gemm");
  Add((PotrfCase<S> *)nullptr, "potrf", "f64", L.F64, "sv_potrf",
      "base_potrf");
  Add((PotrfCase<S> *)nullptr, "potrf_avx", "f64", L.F64, "vv_potrf",
      "basev_potrf");
  Add((FfnnCase<S> *)nullptr, "ffnn", "f64", L.F64, "sv_ffnn", "base_ffnn");
  Add((FfnnCase<S> *)nullptr, "ffnn_avx", "f64", L.F64, "vv_ffnn",
      "basev_ffnn");
  Add((MvmCase<S> *)nullptr, "mvm", "f64", L.F64, "sv_mvm", "base_mvm");
  Add((HenonCase<S> *)nullptr, "henon", "f64", L.F64, "sv_henon",
      "base_henon");
  Add((HornerCase *)nullptr, "horner", "f64", L.F64, "sv_horner",
      "base_horner");
  Add((PointwiseCase<false> *)nullptr, "pade", "f64", L.F64, "sv_pade",
      "base_pade");
  Add((PointwiseCase<true> *)nullptr, "gauss", "f64", L.F64, "sv_gauss",
      "base_gauss");
  Add((VmulCase *)nullptr, "vmul", "batch", L.Batch, "sb_vmul", "nb_vmul");
  // sv dd.
  Add((FftCase<D> *)nullptr, "fft", "dd", L.Dd, "svdd_fft", "base_fft");
  Add((GemmCase<D> *)nullptr, "gemm", "dd", L.Dd, "svdd_gemm", "base_gemm");
  Add((PotrfCase<D> *)nullptr, "potrf", "dd", L.Dd, "svdd_potrf",
      "base_potrf");
  Add((FfnnCase<D> *)nullptr, "ffnn", "dd", L.Dd, "svdd_ffnn", "base_ffnn");
  Add((MvmCase<D> *)nullptr, "mvm", "dd", L.Dd, "svdd_mvm", "base_mvm");
  Add((HenonCase<D> *)nullptr, "henon", "dd", L.Dd, "svdd_henon",
      "base_henon");
  return Cs;
}

inline uint64_t cycles() {
  _mm_lfence();
  uint64_t T = __rdtsc();
  _mm_lfence();
  return T;
}

/// Runs one native and one generated call of \p C, timing both and
/// checking every generated output against the oracle.
void step(Case &C, std::vector<Iv> &Outs) {
  {
    igen::RoundNearestScope Near;
    C.reset();
    uint64_t T0 = cycles();
    C.native();
    C.NatCycles.push_back((double)(cycles() - T0));
  }
  {
    C.reset();
    igen::RoundUpwardScope Up;
    uint64_t N0 = nowNs(), T0 = cycles();
    C.gen();
    uint64_t T1 = cycles(), N1 = nowNs();
    C.GenCycles.push_back((double)(T1 - T0));
    C.GenUs.push_back((double)(N1 - N0) / 1000.0);
  }
  Outs.clear();
  C.outputs(Outs);
  ++C.Checked;
  bool First = C.Checked == 1;
  bool Bad = Outs.size() != C.Oracle.size();
  for (size_t I = 0; !Bad && I < Outs.size(); ++I) {
    const Iv &V = Outs[I];
    if (!(V.Lo <= C.Oracle[I] && C.Oracle[I] <= V.Hi)) {
      Bad = true;
      ++C.Violations;
      char Buf[200];
      quadmath_snprintf(Buf, sizeof(Buf), "%.30Qg not in [%.30Qg, %.30Qg]",
                        C.Oracle[I], V.Lo, V.Hi);
      if (C.FirstFailure.empty())
        C.FirstFailure = C.Kernel + "." + C.Prec + " output " +
                         std::to_string(I) + ": " + Buf;
    }
    if (First) {
      C.BitsSum += V.Bits;
      ++C.BitsCount;
    }
  }
  if (Bad)
    ++C.Failed;
}

} // namespace

int pb::runAot(const AotOptions &Opt) {
  Libs L;
  auto Open = [&](const char *Name) {
    std::string Path = Opt.Dir + "/" + Name;
    void *H = dlopen(Path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!H)
      std::fprintf(stderr, "perfbench: %s\n", dlerror());
    return H;
  };
  L.F64 = Open("f64.so");
  L.Dd = Open("dd.so");
  L.Batch = Open("batch.so");
  L.Native = Open("native.so");
  if (!L.F64 || !L.Dd || !L.Batch || !L.Native)
    return 1;
  std::vector<std::unique_ptr<Case>> Cs;
  try {
    Cs = makeCases(L, Opt.Seed);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
  std::vector<Iv> Outs;
  double Until = nowSeconds() + Opt.Seconds;
  do {
    for (auto &C : Cs)
      step(*C, Outs);
  } while (nowSeconds() < Until);

  std::string Rows = "{";
  std::vector<double> F64Slow, DdSlow, AllUs, ConfigUs, ConfigBits;
  uint64_t Attempted = 0, Failed = 0, Violations = 0;
  double GenSeconds = 0;
  std::string FirstFailure;
  std::map<std::string, double> NativeCycles;
  for (auto &C : Cs) {
    double Nat = quantile(C->NatCycles, 0.5);
    double Gen = quantile(C->GenCycles, 0.5);
    double Slow = Gen / Nat;
    (C->Prec == "dd" ? DdSlow : F64Slow).push_back(Slow);
    std::string Key = "aot." + C->Kernel + "." + C->Prec;
    jsonNum(Rows, Key + ".cycles", Gen);
    jsonNum(Rows, Key + ".slowdown", Slow);
    double Bits = C->BitsCount ? C->BitsSum / (double)C->BitsCount : 0.0;
    jsonNum(Rows, Key + ".accuracy_bits", Bits);
    ConfigBits.push_back(Bits);
    NativeCycles["aot." + C->Kernel + ".native_cycles"] = Nat;
    // One round-robin pass at every configuration's median speed.
    ConfigUs.push_back(quantile(C->GenUs, 0.5));
    GenSeconds += ConfigUs.back() * 1e-6;
    AllUs.insert(AllUs.end(), C->GenUs.begin(), C->GenUs.end());
    Attempted += C->Checked;
    Failed += C->Failed;
    Violations += C->Violations;
    if (FirstFailure.empty())
      FirstFailure = C->FirstFailure;
  }
  for (const auto &[K, V] : NativeCycles)
    jsonNum(Rows, K, V);
  jsonNum(Rows, "aot.dd_slowdown_geomean", geomean(DdSlow));
  Rows += "}";

  double BitsMean = 0;
  for (double B : ConfigBits)
    BitsMean += B / (double)ConfigBits.size();
  std::string J = "{";
  jsonNum(J, "attempted", (double)Attempted);
  jsonNum(J, "failed", (double)Failed);
  jsonNum(J, "violations", (double)Violations);
  jsonNum(J, "samples", (double)AllUs.size());
  // The configurations' call durations are far apart, so the pooled
  // median would fall in a gap between two of them and move with their
  // tails; the median configuration's median call does not.
  jsonNum(J, "latency_p50_us", quantile(ConfigUs, 0.50));
  jsonNum(J, "latency_p99_us", quantile(AllUs, 0.99));
  jsonNum(J, "throughput_rps", GenSeconds > 0 ? (double)Cs.size() / GenSeconds
                                              : 0);
  jsonNum(J, "accuracy_bits_mean", BitsMean);
  jsonNum(J, "slowdown_geomean", geomean(F64Slow));
  J += ", \"first_failure\": \"";
  for (char Ch : FirstFailure)
    J += Ch == '"' || Ch == '\\' ? '\'' : Ch;
  J += "\", \"per_config\": " + Rows + "}\n";
  if (!writeFile(Opt.Out, J)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Opt.Out.c_str());
    return 1;
  }
  return 0;
}

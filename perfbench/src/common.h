//===- common.h - Shared helpers of the repository benchmark ----*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded random numbers, binary128 oracle arithmetic, containment and
/// accuracy checks, response scanning and summary statistics shared by
/// the load client, the traced replay and the AOT runner.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "interval/Accuracy.h"
#include "interval/Interval.h"

#include <quadmath.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

using quad = __float128;

//===----------------------------------------------------------------------===//
// Random numbers
//===----------------------------------------------------------------------===//

/// SplitMix64: tiny, fast, and identical on every platform, so a seed
/// names the same inputs everywhere.
class Rng {
public:
  /// The state starts at a scrambled seed: SplitMix64 states of nearby
  /// raw seeds would walk the same sequence one step apart.
  explicit Rng(uint64_t Seed) : S(mix(Seed)) {}
  uint64_t next() { return mix(S += 0x9e3779b97f4a7c15ull); }
  /// Uniform in [Lo, Hi).
  double uniform(double Lo, double Hi) {
    return Lo + (Hi - Lo) * (double)(next() >> 11) * 0x1p-53;
  }
  /// Uniform integer in [Lo, Hi].
  int range(int Lo, int Hi) {
    return Lo + (int)(next() % (uint64_t)(Hi - Lo + 1));
  }
  bool chance(double P) { return uniform(0.0, 1.0) < P; }

private:
  uint64_t S;

  static uint64_t mix(uint64_t Z) {
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
};

/// Mixes a workload seed with a stream index (connection, kernel, ...).
inline uint64_t streamSeed(uint64_t Seed, uint64_t Stream) {
  Rng R(Seed ^ (Stream * 0xd1b54a32d192ed03ull));
  return R.next();
}

//===----------------------------------------------------------------------===//
// Timed buffers
//===----------------------------------------------------------------------===//

/// Cache-line-aligned allocation for every buffer a timed kernel touches:
/// with malloc's 16-byte alignment the same small kernel ran up to 1.4x
/// slower in one process than in the next, depending on where the heap
/// happened to place its vectors.
template <typename T> struct LineAligned {
  using value_type = T;
  LineAligned() = default;
  template <typename U> LineAligned(const LineAligned<U> &) {}
  T *allocate(size_t N) {
    return static_cast<T *>(::operator new(N * sizeof(T), std::align_val_t(64)));
  }
  void deallocate(T *P, size_t) { ::operator delete(P, std::align_val_t(64)); }
  template <typename U> bool operator==(const LineAligned<U> &) const {
    return true;
  }
};
template <typename T> using AVec = std::vector<T, LineAligned<T>>;

//===----------------------------------------------------------------------===//
// Inputs and the binary128 oracle
//===----------------------------------------------------------------------===//

/// An input box coordinate: the interval [Lo, Hi] the program receives.
/// The oracle evaluates the kernel at the exact midpoint.
struct Box {
  double Lo = 0.0, Hi = 0.0;
  quad mid() const { return ((quad)Lo + (quad)Hi) / 2; }
};

/// A box of \p Ulps units in the last place above \p X (0 = a point).
inline Box ulpBox(double X, int Ulps) {
  Box B{X, X};
  for (int I = 0; I < Ulps; ++I)
    B.Hi = std::nextafter(B.Hi, INFINITY);
  return B;
}

inline double fmaxT(double A, double B) { return std::fmax(A, B); }
inline quad fmaxT(quad A, quad B) { return fmaxq(A, B); }
inline double sqrtT(double X) { return std::sqrt(X); }
inline quad sqrtT(quad X) { return sqrtq(X); }
inline double expT(double X) { return std::exp(X); }
inline quad expT(quad X) { return expq(X); }
inline double logT(double X) { return std::log(X); }
inline quad logT(quad X) { return logq(X); }
inline double sinT(double X) { return std::sin(X); }
inline quad sinT(quad X) { return sinq(X); }
inline double cosT(double X) { return std::cos(X); }
inline quad cosT(quad X) { return cosq(X); }

/// True when [Lo, Hi] contains \p V. NaN endpoints never contain.
inline bool contains(double Lo, double Hi, quad V) {
  return Lo <= Hi && (quad)Lo <= V && V <= (quad)Hi;
}

/// Correct bits of [Lo, Hi] as Accuracy.h defines them (Section VII).
inline double accuracyBits(double Lo, double Hi) {
  if (!(Lo <= Hi))
    return 0.0;
  return igen::accuracyBits(igen::Interval::fromEndpoints(Lo, Hi));
}

//===----------------------------------------------------------------------===//
// Number spelling
//===----------------------------------------------------------------------===//

inline std::string hexOf(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)Bits);
  return Buf;
}

inline bool doubleOfHex(std::string_view S, double &Out) {
  if (S.size() != 16)
    return false;
  uint64_t Bits = 0;
  for (char C : S) {
    int V = C >= '0' && C <= '9'   ? C - '0'
            : C >= 'a' && C <= 'f' ? C - 'a' + 10
                                   : -1;
    if (V < 0)
      return false;
    Bits = Bits << 4 | (uint64_t)V;
  }
  std::memcpy(&Out, &Bits, sizeof(Out));
  return true;
}

/// Shortest-enough decimal that reads back as exactly \p D.
inline std::string decimalOf(double D) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", D);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Response scanning
//===----------------------------------------------------------------------===//

/// Reads what the benchmark needs from one response line without a
/// JSON library: the ok flag, a typed error code and stage, string
/// fields, and every (lo_hex, hi_hex) pair in document order (the
/// scalar result first, then array elements). Whitespace around ':' is
/// optional, so compact and spaced renderings both scan.
class ResponseScan {
public:
  explicit ResponseScan(std::string_view Line) : L(Line) {}

  /// Value of the first `"Key": <literal>` as raw text (strings without
  /// their quotes); empty when absent.
  std::string_view field(std::string_view Key, size_t From = 0,
                         size_t *End = nullptr) const {
    std::string Needle = "\"" + std::string(Key) + "\"";
    size_t P = L.find(Needle, From);
    if (P == std::string_view::npos)
      return {};
    P += Needle.size();
    while (P < L.size() && (L[P] == ' ' || L[P] == ':'))
      ++P;
    if (P >= L.size())
      return {};
    size_t Q = P;
    if (L[P] == '"') {
      ++P;
      Q = L.find('"', P);
      if (Q == std::string_view::npos)
        return {};
      if (End)
        *End = Q + 1;
      return L.substr(P, Q - P);
    }
    while (Q < L.size() && L[Q] != ',' && L[Q] != '}' && L[Q] != ']')
      ++Q;
    if (End)
      *End = Q;
    return L.substr(P, Q - P);
  }

  bool ok() const { return field("ok") == "true"; }
  std::string_view errorCode() const { return field("code"); }

  /// All interval endpoints in order; false on a malformed pair.
  bool intervals(std::vector<std::pair<double, double>> &Out) const {
    Out.clear();
    size_t Pos = 0;
    for (;;) {
      size_t E = 0;
      std::string_view Lo = field("lo_hex", Pos, &E);
      if (Lo.empty())
        return true;
      std::string_view Hi = field("hi_hex", E, &Pos);
      double A, B;
      if (!doubleOfHex(Lo, A) || !doubleOfHex(Hi, B))
        return false;
      Out.push_back({A, B});
    }
  }

private:
  std::string_view L;
};

//===----------------------------------------------------------------------===//
// Statistics and output
//===----------------------------------------------------------------------===//

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline uint64_t nowNs() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of \p Xs (sorted in place), Q in [0, 1].
template <typename T> double quantile(std::vector<T> &Xs, double Q) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  size_t K = (size_t)std::ceil(Q * (double)Xs.size());
  K = std::clamp<size_t>(K, 1, Xs.size());
  return (double)Xs[K - 1];
}

inline double geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0.0;
  double S = 0.0;
  for (double X : Xs)
    S += std::log(X);
  return std::exp(S / (double)Xs.size());
}

/// Appends `"Name": Value` to a flat JSON object under construction.
inline void jsonNum(std::string &Out, std::string_view Name, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  if (Out.size() > 1)
    Out += ", ";
  Out += "\"";
  Out += Name;
  Out += "\": ";
  Out += Buf;
}

/// Writes \p Body to \p Path; false on failure.
inline bool writeFile(const std::string &Path, const std::string &Body) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Body.data(), 1, Body.size(), F) == Body.size();
  return std::fclose(F) == 0 && Ok;
}

} // namespace pb

#endif // PERFBENCH_COMMON_H

//===- Interval32.h - Scalar single-precision intervals ---------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-precision interval type f32i (Table I). IGen promotes float
/// computations to double intervals by default, so this type exists for
/// library completeness (casts, tests, users who want the narrow type);
/// only the core arithmetic is provided. Same (-lo, hi) representation and
/// upward-rounding contract as Interval.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_INTERVAL_INTERVAL32_H
#define IGEN_INTERVAL_INTERVAL32_H

#include "interval/Interval.h"

namespace igen {

/// A single-precision interval stored as (-lo, hi).
struct Interval32 {
  float NegLo = 0.0f;
  float Hi = 0.0f;

  Interval32() = default;
  constexpr Interval32(float NegLo, float Hi) : NegLo(NegLo), Hi(Hi) {}

  float lo() const { return -NegLo; }
  float hi() const { return Hi; }

  static Interval32 fromEndpoints(float Lo, float Hi) {
    return Interval32(-Lo, Hi);
  }
  static Interval32 fromPoint(float X) { return Interval32(-X, X); }

  bool hasNaN() const { return std::isnan(NegLo) || std::isnan(Hi); }

  bool contains(float X) const {
    if (hasNaN())
      return true;
    return -NegLo <= X && X <= Hi;
  }

  /// Widening to a double interval is exact.
  Interval widen() const {
    return Interval(static_cast<double>(NegLo), static_cast<double>(Hi));
  }

  /// Narrowing conversion from a double interval: rounds each endpoint
  /// outward to float (requires upward rounding; float conversion honours
  /// the rounding mode).
  static Interval32 fromInterval(const Interval &X) {
    assertRoundUpward();
    Interval32 R(static_cast<float>(X.NegLo), static_cast<float>(X.Hi));
    // The empty asm keeps the narrowing: GCC 12 at -O2 and above
    // vectorizes fromInterval(X).widen() into a paired double -> float
    // -> double round trip and then folds that pair away.
    __asm__("" : "+m"(R));
    return R;
  }
};

inline Interval32 iAdd(const Interval32 &X, const Interval32 &Y) {
  assertRoundUpward();
  return Interval32(X.NegLo + Y.NegLo, X.Hi + Y.Hi);
}

inline Interval32 iNeg(const Interval32 &X) {
  return Interval32(X.Hi, X.NegLo);
}

inline Interval32 iSub(const Interval32 &X, const Interval32 &Y) {
  assertRoundUpward();
  return Interval32(X.NegLo + Y.Hi, X.Hi + Y.NegLo);
}

/// Multiplication/division/sqrt route through the double implementation:
/// exact widening, double-interval op, outward narrowing. This is sound
/// and, because every float pair is exactly representable in double, also
/// tight to within the final float rounding.
inline Interval32 iMul(const Interval32 &X, const Interval32 &Y) {
  return Interval32::fromInterval(iMul(X.widen(), Y.widen()));
}

inline Interval32 iDiv(const Interval32 &X, const Interval32 &Y) {
  return Interval32::fromInterval(iDiv(X.widen(), Y.widen()));
}

inline Interval32 iSqrt(const Interval32 &X) {
  return Interval32::fromInterval(iSqrt(X.widen()));
}

inline TBool iCmpLT(const Interval32 &X, const Interval32 &Y) {
  return iCmpLT(X.widen(), Y.widen());
}
inline TBool iCmpGT(const Interval32 &X, const Interval32 &Y) {
  return iCmpGT(X.widen(), Y.widen());
}

} // namespace igen

#endif // IGEN_INTERVAL_INTERVAL32_H

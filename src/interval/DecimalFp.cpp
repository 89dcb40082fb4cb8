//===- DecimalFp.cpp - Sound decimal-literal enclosures ---------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "interval/DecimalFp.h"

#include <cctype>
#include <cstdlib>
#include <string>

using namespace igen;

DdInterval igen::pow10Interval(int N) {
  assertRoundUpward();
  if (N == 0)
    return DdInterval::fromPoint(1.0);
  if (N < 0)
    return ddiDiv(DdInterval::fromPoint(1.0), pow10Interval(-N));
  if (N == 1)
    return DdInterval::fromPoint(10.0);
  // Square-and-multiply over sound interval arithmetic: O(log N) steps,
  // cheap enough to recompute, so there is no shared memo to guard.
  DdInterval Half = pow10Interval(N / 2);
  DdInterval Result = ddiMul(Half, Half);
  if (N % 2)
    Result = ddiMul(Result, DdInterval::fromPoint(10.0));
  return Result;
}

DdInterval igen::ddIntervalFromDecimal(std::string_view Text) {
  assertRoundUpward();
  size_t Pos = 0;
  auto Peek = [&]() { return Pos < Text.size() ? Text[Pos] : '\0'; };
  bool Negative = false;
  if (Peek() == '+' || Peek() == '-')
    Negative = Text[Pos++] == '-';

  std::string Digits;
  int Exponent = 0; // value = Digits * 10^Exponent
  bool SawDigit = false, SawDot = false;
  while (true) {
    char C = Peek();
    if (std::isdigit(static_cast<unsigned char>(C))) {
      Digits.push_back(C);
      if (SawDot)
        --Exponent;
      SawDigit = true;
      ++Pos;
      continue;
    }
    if (C == '.' && !SawDot) {
      SawDot = true;
      ++Pos;
      continue;
    }
    break;
  }
  if (!SawDigit)
    return DdInterval::nan();
  if (Peek() == 'e' || Peek() == 'E') {
    ++Pos;
    bool ExpNeg = false;
    if (Peek() == '+' || Peek() == '-')
      ExpNeg = Text[Pos++] == '-';
    if (!std::isdigit(static_cast<unsigned char>(Peek())))
      return DdInterval::nan();
    long E = 0;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) {
      E = E * 10 + (Text[Pos++] - '0');
      if (E > 100000)
        break; // saturates below anyway
    }
    Exponent += static_cast<int>(ExpNeg ? -E : E);
  }
  // Trailing type suffixes (f/F and the IGen tolerance t) are the
  // caller's business; ignore a single one if present.
  if (Peek() == 'f' || Peek() == 'F' || Peek() == 't')
    ++Pos;
  if (Pos != Text.size())
    return DdInterval::nan();

  // Strip leading zeros (keep at least one digit).
  size_t FirstNonZero = Digits.find_first_not_of('0');
  if (FirstNonZero == std::string::npos)
    return DdInterval::fromPoint(Negative ? -0.0 : 0.0);
  Digits.erase(0, FirstNonZero);

  // Evaluate sum over 15-digit chunks, most significant first:
  //   value = sum chunk_i * 10^(Exponent + shift_i)
  // A parallel double-interval sum serves as the sound fallback when the
  // value overflows double-double's range (inf - inf -> NaN internally).
  DdInterval Sum = DdInterval::fromPoint(0.0);
  Interval HullSum = Interval::fromPoint(0.0);
  size_t NumDigits = Digits.size();
  for (size_t Start = 0; Start < NumDigits; Start += 15) {
    size_t Len = std::min<size_t>(15, NumDigits - Start);
    double Chunk =
        static_cast<double>(std::strtoll(
            Digits.substr(Start, Len).c_str(), nullptr, 10)); // exact
    int Shift = static_cast<int>(NumDigits - Start - Len);
    DdInterval Term = ddiMul(DdInterval::fromPoint(Chunk),
                             pow10Interval(Exponent + Shift));
    Sum = ddiAdd(Sum, Term);
    HullSum = iAdd(HullSum, Term.outerHull());
  }
  if (Sum.hasNaN() && !HullSum.hasNaN()) {
    Sum = DdInterval::fromInterval(HullSum);
  }
  if (Negative)
    Sum = ddiNeg(Sum);
  return Sum;
}

Interval igen::intervalFromDecimal(std::string_view Text) {
  DdInterval Dd = ddIntervalFromDecimal(Text);
  if (Dd.hasNaN())
    return Interval::nan();
  return Dd.outerHull();
}

/* Rational (Pade-style) approximation evaluated pointwise. Under the
   positivity guard the denominator is provably >= 2, so the optimizer
   may emit the restricted division ia_div_p and specialized FMAs. */

double k_pade(const double *xs, double *out, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    double xi = xs[i];
    if (xi > 0.0) {
      double p = 0.125 + xi * (2.0 + xi);
      double q = 2.0 + xi * (0.5 + xi);
      double r = p / q;
      out[i] = r;
      s = s + r;
    } else {
      out[i] = 0.0;
    }
  }
  return s;
}

/* Horner evaluation of a degree-d polynomial at a positive point.
   The positivity guard lets the optimizer prove sign facts for xi and
   lower the multiply-accumulate to the specialized fused FMA. */

double k_horner(const double *coef, double x, int d) {
  double r = 0.0;
  if (x > 0.0) {
    double xi = x;
    r = coef[d];
    for (int k = d - 1; k >= 0; k--) {
      r = r * xi + coef[k];
    }
  }
  return r;
}

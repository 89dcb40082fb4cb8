/* Transcendental-heavy kernel: one exp, one log, one sin and one cos per
   point. At the default -O the elementary calls lower to the certified
   polynomial fast path (ia_*_fast); at -O0 they stay on the per-call
   libm-widened path, so the Table V optimizer row isolates the
   fast-kernel speedup. */

double k_gauss(const double *xs, double *out, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    double xi = xs[i];
    double g = exp(0.0 - xi * xi);
    double h = log(1.0 + g) + sin(xi) * cos(xi);
    out[i] = h;
    s = s + h;
  }
  return s;
}

/* Kernels for the lowering rules the C emitter and the serve evaluator
   share: joins over several targets, tolerance literals, float math
   callees, and the double -> float cast. */

double rk_minmax(double a, double b) {
  double lo = a;
  double hi = b;
  if (a > b) {
    hi = a;
    lo = b;
  }
  return hi * 2.0 - lo;
}

double rk_three(double x, double y) {
  double s = 0.0;
  double p = 1.0;
  double q = x;
  if (x > y) {
    q = y * 0.5;
    p = x * y;
    s = s + x;
  } else {
    s = y - x;
    if (y > 1.0) {
      p = p + q;
    }
  }
  return s + p * q;
}

double rk_tol(double x) {
  return x * 2.0 + 0.25t;
}

double rk_fmath(double a, double b) {
  return fabsf(a) + fminf(a, b) * fmax(a, b) - fabs(b);
}

double rk_narrow(double x) {
  float f = (float)(x * 3.0 + 0.1);
  return f + 1.0;
}

/* The eval-scalar benchmark kernels (perfbench's ScalarModuleSource),
   compiled -O0 --target=ss for the eval vs AOT bit-identity test. */

double newton(double a, double x0, int n) {
  double x = x0;
  for (int i = 0; i < n; i++) {
    x = 0.5 * (x + a / x);
  }
  return x;
}
double henon(double x0, double y0, int n, int m) {
  double a = 1.05;
  double b = 0.3;
  double s = 0.0;
  for (int j = 0; j < m; j++) {
    double x = x0 + j * 0.0078125;
    double y = y0;
    for (int i = 0; i < n; i++) {
      double xi = x;
      x = 1.0 - a * xi * xi + y;
      y = b * xi;
    }
    s = s + x;
  }
  return s;
}
double piece(double x, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    double t = x + i * 0.00390625;
    if (t > 1.0) {
      s = s + t * t;
    } else {
      s = s - t;
    }
  }
  return s;
}
double elem(double x, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    double t = x + i * 0.001;
    s = s + exp(0.0 - t) * sin(t) + log(1.0 + t) + sqrt(t);
  }
  return s;
}
double red(double x, double h, int n) {
  double s = 0.0;
  #pragma igen reduce
  for (int i = 0; i < n; i++) {
    double t = x + i * h;
    s += t * t;
  }
  return s;
}

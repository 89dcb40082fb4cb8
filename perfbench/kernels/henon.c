/* The Henon map benchmark of Fig. 11. */

double k_henon(double x, double y, int iterations) {
  double a = 1.05;
  double b = 0.3;
  for (int i = 0; i < iterations; i++) {
    double xi = x;
    double yi = y;
    x = 1 - a * xi * xi + yi;
    y = b * xi;
  }
  return x;
}

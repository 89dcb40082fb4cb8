/* y = A*x + y with A m x n (Fig. 7 / Fig. 10 reduction benchmark). */

void k_mvm(const double *A, const double *x, double *y, int m, int n) {
  #pragma igen reduce y
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      y[i] = y[i] + A[i * n + j] * x[j];
    }
  }
}

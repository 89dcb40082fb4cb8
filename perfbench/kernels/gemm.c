/* C += A*B, straightforward i-k-j matrix multiplication (ATLAS
   substitute); row-major n x n. */

void k_gemm(double *C, const double *A, const double *B, int n) {
  for (int i = 0; i < n; i++) {
    for (int k = 0; k < n; k++) {
      double a = A[i * n + k];
      for (int j = 0; j < n; j++) {
        C[i * n + j] = C[i * n + j] + a * B[k * n + j];
      }
    }
  }
}

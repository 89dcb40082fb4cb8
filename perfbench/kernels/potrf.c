#include <math.h>
/* In-place lower-triangular Cholesky factorization (SLinGen
   substitute); A is row-major n x n, symmetric positive definite. */

void k_potrf(double *A, int n) {
  for (int j = 0; j < n; j++) {
    double s = A[j * n + j];
    for (int k = 0; k < j; k++) {
      s = s - A[j * n + k] * A[j * n + k];
    }
    double d = sqrt(s);
    A[j * n + j] = d;
    for (int i = j + 1; i < n; i++) {
      double t = A[i * n + j];
      for (int k = 0; k < j; k++) {
        t = t - A[i * n + k] * A[j * n + k];
      }
      A[i * n + j] = t / d;
    }
  }
}

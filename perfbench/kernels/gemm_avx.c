/* AVX variant of gemm (j loop vectorized, n multiple of 4). */
#include <immintrin.h>

void kv_gemm(double *C, const double *A, const double *B, int n) {
  for (int i = 0; i < n; i++) {
    for (int k = 0; k < n; k++) {
      __m256d a = _mm256_set1_pd(A[i * n + k]);
      for (int j = 0; j < n; j += 4) {
        __m256d c = _mm256_loadu_pd(C + i * n + j);
        __m256d b = _mm256_loadu_pd(B + k * n + j);
        _mm256_storeu_pd(C + i * n + j,
                         _mm256_add_pd(c, _mm256_mul_pd(a, b)));
      }
    }
  }
}

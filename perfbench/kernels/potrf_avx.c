#include <math.h>
/* AVX variant of Cholesky: the dot products vectorize with a horizontal
   reduction through the 128-bit halves. */
#include <immintrin.h>

void kv_potrf(double *A, int n) {
  for (int j = 0; j < n; j++) {
    __m256d accd = _mm256_setzero_pd();
    int k = 0;
    for (; k + 4 <= j; k += 4) {
      __m256d r = _mm256_loadu_pd(A + j * n + k);
      accd = _mm256_add_pd(accd, _mm256_mul_pd(r, r));
    }
    __m128d lo = _mm256_castpd256_pd128(accd);
    __m128d hi = _mm256_extractf128_pd(accd, 1);
    __m128d s2 = _mm_add_pd(lo, hi);
    __m128d sw = _mm_unpackhi_pd(s2, s2);
    double s = A[j * n + j] - _mm_cvtsd_f64(_mm_add_pd(s2, sw));
    for (; k < j; k++) {
      s = s - A[j * n + k] * A[j * n + k];
    }
    double d = sqrt(s);
    A[j * n + j] = d;
    for (int i = j + 1; i < n; i++) {
      __m256d acc = _mm256_setzero_pd();
      int k2 = 0;
      for (; k2 + 4 <= j; k2 += 4) {
        __m256d ri = _mm256_loadu_pd(A + i * n + k2);
        __m256d rj = _mm256_loadu_pd(A + j * n + k2);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(ri, rj));
      }
      __m128d lo2 = _mm256_castpd256_pd128(acc);
      __m128d hi2 = _mm256_extractf128_pd(acc, 1);
      __m128d t2 = _mm_add_pd(lo2, hi2);
      __m128d tw = _mm_unpackhi_pd(t2, t2);
      double t = A[i * n + j] - _mm_cvtsd_f64(_mm_add_pd(t2, tw));
      for (; k2 < j; k2++) {
        t = t - A[i * n + k2] * A[j * n + k2];
      }
      A[i * n + j] = t / d;
    }
  }
}

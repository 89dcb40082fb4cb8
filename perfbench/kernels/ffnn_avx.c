#include <math.h>
/* AVX variant of the feedforward network (n multiple of 4). */
#include <immintrin.h>

void kv_ffnn(const double *W, const double *b, double *buf0, double *buf1,
             int n, int layers) {
  for (int l = 0; l < layers; l++) {
    for (int o = 0; o < n; o++) {
      __m256d acc = _mm256_setzero_pd();
      for (int i = 0; i < n; i += 4) {
        __m256d w = _mm256_loadu_pd(W + (l * n + o) * n + i);
        __m256d x = _mm256_loadu_pd(buf0 + i);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(w, x));
      }
      __m128d lo = _mm256_castpd256_pd128(acc);
      __m128d hi = _mm256_extractf128_pd(acc, 1);
      __m128d s2 = _mm_add_pd(lo, hi);
      __m128d sw = _mm_unpackhi_pd(s2, s2);
      double s = b[l * n + o] + _mm_cvtsd_f64(_mm_add_pd(s2, sw));
      buf1[o] = fmax(s, 0.0);
    }
    for (int o = 0; o < n; o++) {
      buf0[o] = buf1[o];
    }
  }
}

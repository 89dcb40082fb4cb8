/* AVX variant of the radix-2 FFT: stages with half >= 4 vectorize the
   butterfly loop (4 butterflies per iteration). */
#include <immintrin.h>

void kv_fft(double *re, double *im, const double *wre, const double *wim,
            int *rev, int n) {
  for (int i = 0; i < n; i++) {
    int j = rev[i];
    if (j > i) {
      double tr = re[i];
      re[i] = re[j];
      re[j] = tr;
      double ti = im[i];
      im[i] = im[j];
      im[j] = ti;
    }
  }
  int tbase = 0;
  for (int len = 2; len <= n; len = len * 2) {
    int half = len / 2;
    if (half >= 4) {
      for (int i = 0; i < n; i += len) {
        for (int j = 0; j < half; j += 4) {
          __m256d wr = _mm256_loadu_pd(wre + tbase + j);
          __m256d wi = _mm256_loadu_pd(wim + tbase + j);
          __m256d xr = _mm256_loadu_pd(re + i + j + half);
          __m256d xi = _mm256_loadu_pd(im + i + j + half);
          __m256d vr = _mm256_sub_pd(_mm256_mul_pd(xr, wr),
                                     _mm256_mul_pd(xi, wi));
          __m256d vi = _mm256_add_pd(_mm256_mul_pd(xr, wi),
                                     _mm256_mul_pd(xi, wr));
          __m256d ur = _mm256_loadu_pd(re + i + j);
          __m256d ui = _mm256_loadu_pd(im + i + j);
          _mm256_storeu_pd(re + i + j, _mm256_add_pd(ur, vr));
          _mm256_storeu_pd(im + i + j, _mm256_add_pd(ui, vi));
          _mm256_storeu_pd(re + i + j + half, _mm256_sub_pd(ur, vr));
          _mm256_storeu_pd(im + i + j + half, _mm256_sub_pd(ui, vi));
        }
      }
    } else {
      for (int i = 0; i < n; i += len) {
        for (int j = 0; j < half; j++) {
          double wr = wre[tbase + j];
          double wi = wim[tbase + j];
          double xr = re[i + j + half];
          double xi = im[i + j + half];
          double vr = xr * wr - xi * wi;
          double vi = xr * wi + xi * wr;
          double ur = re[i + j];
          double ui = im[i + j];
          re[i + j] = ur + vr;
          im[i + j] = ui + vi;
          re[i + j + half] = ur - vr;
          im[i + j + half] = ui - vi;
        }
      }
    }
    tbase = tbase + half;
  }
}

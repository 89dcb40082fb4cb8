/* Iterative radix-2 DIT FFT on split re/im arrays (Spiral substitute).
   Twiddles are precomputed per stage (wre/wim, contiguous per stage) and
   rev holds the bit-reversal permutation; n is a power of two. */

void k_fft(double *re, double *im, const double *wre, const double *wim,
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
    tbase = tbase + half;
  }
}

#include <math.h>
/* Fully connected feedforward network with ReLU activations; all layers
   have n neurons, `layers` hidden layers (paper: 9). W is layer-major
   (layers x n x n), b layer-major (layers x n). buf0 holds the input
   activation on entry and the output activation on exit. */

void k_ffnn(const double *W, const double *b, double *buf0, double *buf1,
            int n, int layers) {
  for (int l = 0; l < layers; l++) {
    for (int o = 0; o < n; o++) {
      double s = b[l * n + o];
      for (int i = 0; i < n; i++) {
        s = s + W[(l * n + o) * n + i] * buf0[i];
      }
      buf1[o] = fmax(s, 0.0);
    }
    for (int o = 0; o < n; o++) {
      buf0[o] = buf1[o];
    }
  }
}

/* Elementwise product over 2^16 elements: the single-operation loop
   shape that --batch-loops routes to one ia_arr_mul_f64 call of the
   batched runtime (CpuDispatch picks the SIMD tier at run time). */

void k_vmul(double *d, double *a, double *b, int n) {
  for (int i = 0; i < n; i++)
    d[i] = a[i] * b[i];
}

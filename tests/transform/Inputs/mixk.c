/* Int/double mixes that the eval tier and the AOT translation must
 * answer alike: a plain '=' to an int does not read it, and an int
 * returned from a double function converts to a point interval. */

double mix_assign(double x, int n) {
  int y;
  y = n * 3;
  int z;
  z = y - 1;
  z += n;
  return x * y + z;
}

double mix_ret(double x, int n) {
  int k;
  k = n;
  if (x > 0.0)
    k = k + 1;
  return k;
}

double mix_int_ret(int n) {
  if (n > 0)
    return 1;
  return n;
}

double mix_cond(double x, int k) { return (k > 0 ? k : 2.0) * x; }

double mix_int_update(int c) {
  c *= 2;
  c -= 1;
  c += 5;
  return c;
}

double mix_casts(double x, int n) {
  float f = (float)n;
  double d = (double)(unsigned)n + (int)(n * 3);
  return f + d + (float)x;
}

double mix_logic(double x, int n) {
  int c = 0;
  double s = 0.0;
  if (n > 2 && (c = c + 1) > 0)
    s = s + 1.0;
  if (n > 100 || (c = c + 10) > 0)
    s = s + 2.0;
  if (x > 0.0 && n > 1)
    s = s + 4.0;
  if (!(x < 0.0) || x > 10.0)
    s = s + 8.0;
  if (!n)
    s = s + 16.0;
  return s + c;
}

int mix_tri(int n) {
  int s = 0;
  for (int i = 1; i <= n; i++)
    s += i;
  return s;
}

double mix_int_call(double x, int n) { return mix_tri(n) * x + mix_tri(n - 1); }

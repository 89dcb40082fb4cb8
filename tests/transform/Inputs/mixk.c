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

//===- kernels.h - Reference implementations of benchmark kernels -*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every kernel the benchmark sends to the daemon or builds ahead of
/// time, written once over a number type T. Instantiated at binary128
/// (`quad`) it is the correctness oracle: each interval the program
/// returns must contain the T=quad value at the midpoint of the input
/// box. Instantiated at double it is the native baseline the serve
/// slowdown is measured against. The C source the program compiles sits
/// next to each reference so the two stay in step.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_KERNELS_H
#define PERFBENCH_KERNELS_H

#include "common.h"

namespace pb {

//===----------------------------------------------------------------------===//
// eval-array: resident array kernels (every array is echoed back)
//===----------------------------------------------------------------------===//

inline const char *ArrayModuleSource =
    "double dot(double *a, double *b, int n) {\n"
    "  double s = 0.0;\n"
    "  for (int i = 0; i < n; i++) {\n"
    "    s = s + a[i] * b[i];\n"
    "  }\n"
    "  return s;\n"
    "}\n"
    "void axpy(double alpha, double *x, double *y, int n) {\n"
    "  for (int i = 0; i < n; i++) {\n"
    "    y[i] = alpha * x[i] + y[i];\n"
    "  }\n"
    "}\n"
    "double nrm2sq(double *x, int n) {\n"
    "  double s = 0.0;\n"
    "  for (int i = 0; i < n; i++) {\n"
    "    s = s + x[i] * x[i];\n"
    "  }\n"
    "  return s;\n"
    "}\n"
    "void gemv_row(double *A, double *x, double *y, int m, int n) {\n"
    "  for (int i = 0; i < m; i++) {\n"
    "    double s = y[i];\n"
    "    for (int j = 0; j < n; j++) {\n"
    "      s = s + A[i * n + j] * x[j];\n"
    "    }\n"
    "    y[i] = s;\n"
    "  }\n"
    "}\n";

template <typename T> T dotRef(const T *A, const T *B, int N) {
  T S = 0;
  for (int I = 0; I < N; ++I)
    S = S + A[I] * B[I];
  return S;
}

template <typename T> void axpyRef(T Alpha, const T *X, T *Y, int N) {
  for (int I = 0; I < N; ++I)
    Y[I] = Alpha * X[I] + Y[I];
}

template <typename T> T nrm2sqRef(const T *X, int N) {
  T S = 0;
  for (int I = 0; I < N; ++I)
    S = S + X[I] * X[I];
  return S;
}

template <typename T>
void gemvRowRef(const T *A, const T *X, T *Y, int M, int N) {
  for (int I = 0; I < M; ++I) {
    T S = Y[I];
    for (int J = 0; J < N; ++J)
      S = S + A[I * N + J] * X[J];
    Y[I] = S;
  }
}

//===----------------------------------------------------------------------===//
// eval-scalar: loop kernels with scalar arguments and tiny responses
//===----------------------------------------------------------------------===//

inline const char *ScalarModuleSource =
    "double newton(double a, double x0, int n) {\n"
    "  double x = x0;\n"
    "  for (int i = 0; i < n; i++) {\n"
    "    x = 0.5 * (x + a / x);\n"
    "  }\n"
    "  return x;\n"
    "}\n"
    "double henon(double x0, double y0, int n, int m) {\n"
    "  double a = 1.05;\n"
    "  double b = 0.3;\n"
    "  double s = 0.0;\n"
    "  for (int j = 0; j < m; j++) {\n"
    "    double x = x0 + j * 0.0078125;\n"
    "    double y = y0;\n"
    "    for (int i = 0; i < n; i++) {\n"
    "      double xi = x;\n"
    "      x = 1.0 - a * xi * xi + y;\n"
    "      y = b * xi;\n"
    "    }\n"
    "    s = s + x;\n"
    "  }\n"
    "  return s;\n"
    "}\n"
    "double piece(double x, int n) {\n"
    "  double s = 0.0;\n"
    "  for (int i = 0; i < n; i++) {\n"
    "    double t = x + i * 0.00390625;\n"
    "    if (t > 1.0) {\n"
    "      s = s + t * t;\n"
    "    } else {\n"
    "      s = s - t;\n"
    "    }\n"
    "  }\n"
    "  return s;\n"
    "}\n"
    "double elem(double x, int n) {\n"
    "  double s = 0.0;\n"
    "  for (int i = 0; i < n; i++) {\n"
    "    double t = x + i * 0.001;\n"
    "    s = s + exp(0.0 - t) * sin(t) + log(1.0 + t) + sqrt(t);\n"
    "  }\n"
    "  return s;\n"
    "}\n"
    "double red(double x, double h, int n) {\n"
    "  double s = 0.0;\n"
    "  #pragma igen reduce\n"
    "  for (int i = 0; i < n; i++) {\n"
    "    double t = x + i * h;\n"
    "    s += t * t;\n"
    "  }\n"
    "  return s;\n"
    "}\n";

template <typename T> T newtonRef(T A, T X0, int N) {
  T X = X0;
  for (int I = 0; I < N; ++I)
    X = T(0.5) * (X + A / X);
  return X;
}

template <typename T> T henonRef(T X0, T Y0, int N, int M) {
  const T A = T(1.05), B = T(0.3);
  T S = 0;
  for (int J = 0; J < M; ++J) {
    T X = X0 + T(J) * T(0.0078125), Y = Y0;
    for (int I = 0; I < N; ++I) {
      T Xi = X;
      X = T(1.0) - A * Xi * Xi + Y;
      Y = B * Xi;
    }
    S = S + X;
  }
  return S;
}

template <typename T> T pieceRef(T X, int N) {
  T S = 0;
  for (int I = 0; I < N; ++I) {
    T Tv = X + T(I) * T(0.00390625);
    if (Tv > T(1.0))
      S = S + Tv * Tv;
    else
      S = S - Tv;
  }
  return S;
}

template <typename T> T elemRef(T X, int N) {
  T S = 0;
  for (int I = 0; I < N; ++I) {
    T Tv = X + T(I) * T(0.001);
    S = S + expT(T(0.0) - Tv) * sinT(Tv) + logT(T(1.0) + Tv) + sqrtT(Tv);
  }
  return S;
}

template <typename T> T redRef(T X, T H, int N) {
  T S = 0;
  for (int I = 0; I < N; ++I) {
    T Tv = X + T(I) * H;
    S = S + Tv * Tv;
  }
  return S;
}

//===----------------------------------------------------------------------===//
// aot-kernels: perfbench/kernels (the bench/kernels set plus vmul.c)
//===----------------------------------------------------------------------===//

template <typename T>
void fftRef(T *Re, T *Im, const T *Wre, const T *Wim, const int *Rev,
            int N) {
  for (int I = 0; I < N; ++I) {
    int J = Rev[I];
    if (J > I) {
      std::swap(Re[I], Re[J]);
      std::swap(Im[I], Im[J]);
    }
  }
  int TBase = 0;
  for (int Len = 2; Len <= N; Len *= 2) {
    int Half = Len / 2;
    for (int I = 0; I < N; I += Len)
      for (int J = 0; J < Half; ++J) {
        T Wr = Wre[TBase + J], Wi = Wim[TBase + J];
        T Xr = Re[I + J + Half], Xi = Im[I + J + Half];
        T Vr = Xr * Wr - Xi * Wi, Vi = Xr * Wi + Xi * Wr;
        T Ur = Re[I + J], Ui = Im[I + J];
        Re[I + J] = Ur + Vr;
        Im[I + J] = Ui + Vi;
        Re[I + J + Half] = Ur - Vr;
        Im[I + J + Half] = Ui - Vi;
      }
    TBase += Half;
  }
}

template <typename T> void gemmRef(T *C, const T *A, const T *B, int N) {
  for (int I = 0; I < N; ++I)
    for (int K = 0; K < N; ++K) {
      T Av = A[I * N + K];
      for (int J = 0; J < N; ++J)
        C[I * N + J] = C[I * N + J] + Av * B[K * N + J];
    }
}

template <typename T> void potrfRef(T *A, int N) {
  for (int J = 0; J < N; ++J) {
    T S = A[J * N + J];
    for (int K = 0; K < J; ++K)
      S = S - A[J * N + K] * A[J * N + K];
    T D = sqrtT(S);
    A[J * N + J] = D;
    for (int I = J + 1; I < N; ++I) {
      T Tv = A[I * N + J];
      for (int K = 0; K < J; ++K)
        Tv = Tv - A[I * N + K] * A[J * N + K];
      A[I * N + J] = Tv / D;
    }
  }
}

template <typename T>
void ffnnRef(const T *W, const T *B, T *Buf0, T *Buf1, int N, int Layers) {
  for (int L = 0; L < Layers; ++L) {
    for (int O = 0; O < N; ++O) {
      T S = B[L * N + O];
      for (int I = 0; I < N; ++I)
        S = S + W[(L * N + O) * N + I] * Buf0[I];
      Buf1[O] = fmaxT(S, T(0.0));
    }
    for (int O = 0; O < N; ++O)
      Buf0[O] = Buf1[O];
  }
}

template <typename T> void mvmRef(const T *A, const T *X, T *Y, int M, int N) {
  for (int I = 0; I < M; ++I)
    for (int J = 0; J < N; ++J)
      Y[I] = Y[I] + A[I * N + J] * X[J];
}

template <typename T> T henonKernelRef(T X, T Y, int Iterations) {
  const T A = T(1.05), B = T(0.3);
  for (int I = 0; I < Iterations; ++I) {
    T Xi = X, Yi = Y;
    X = T(1) - A * Xi * Xi + Yi;
    Y = B * Xi;
  }
  return X;
}

template <typename T> T hornerRef(const T *Coef, T X, int D) {
  T R = 0;
  if (X > T(0.0)) {
    R = Coef[D];
    for (int K = D - 1; K >= 0; --K)
      R = R * X + Coef[K];
  }
  return R;
}

template <typename T> T padeRef(const T *Xs, T *Out, int N) {
  T S = 0;
  for (int I = 0; I < N; ++I) {
    T Xi = Xs[I];
    if (Xi > T(0.0)) {
      T P = T(0.125) + Xi * (T(2.0) + Xi);
      T Q = T(2.0) + Xi * (T(0.5) + Xi);
      T R = P / Q;
      Out[I] = R;
      S = S + R;
    } else {
      Out[I] = T(0.0);
    }
  }
  return S;
}

template <typename T> T gaussRef(const T *Xs, T *Out, int N) {
  T S = 0;
  for (int I = 0; I < N; ++I) {
    T Xi = Xs[I];
    T G = expT(T(0.0) - Xi * Xi);
    T H = logT(T(1.0) + G) + sinT(Xi) * cosT(Xi);
    Out[I] = H;
    S = S + H;
  }
  return S;
}

/// perfbench/kernels/vmul.c, the batched elementwise kernel.
template <typename T> void vmulRef(T *D, const T *A, const T *B, int N) {
  for (int I = 0; I < N; ++I)
    D[I] = A[I] * B[I];
}

} // namespace pb

#endif // PERFBENCH_KERNELS_H

//===- ScalarkTu.cpp - The eval-scalar kernels, AOT-compiled ----------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The benchmark's scalar kernels share names with kernels.c (henon), so
// their AOT translation is linked under a wl_ prefix.
//
//===----------------------------------------------------------------------===//

#define newton wl_newton
#define henon wl_henon
#define piece wl_piece
#define elem wl_elem
#define red wl_red

#include "scalark_ss.cpp"

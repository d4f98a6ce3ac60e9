// Internal: generic (scalar) kernel implementations, shared as tail/
// fallback routines by the SIMD translation units. Not part of the public
// API — include kernels.h and use table() instead.
#pragma once

#include <cstddef>

#include "kernels/kernels.h"

namespace ldmo::kernels::generic {

void gemm_rows_f32(const float* a, const float* b, float* c, int i_begin,
                   int i_end, int k, int n);
void axpy_f32(float alpha, const float* x, float* y, int n);
float dot_f32(const float* x, const float* y, int n);

void sigmoid_affine_f64(const double* x, double* out, std::size_t n,
                        double scale, double shift);
void cis_f64(const double* phase, Complex* out, std::size_t n);
void resist_deriv_f64(const double* t, double* out, std::size_t n,
                      double theta);
void add_clamp1_f64(const double* a, const double* b, double* out,
                    std::size_t n);
void add_f64(const double* a, double* out, std::size_t n);
void clamp_max_f64(double* a, std::size_t n, double hi);
double loss_grad_f64(const double* t, const double* target,
                     const double* weights, double* dldt, std::size_t n);
double max_abs_f64(const double* x, std::size_t n);
void descend_f64(double* p, const double* g, double scale, std::size_t n);
void sigmoid_chain_f64(double* g, const double* m, double theta,
                       std::size_t n);
double sq_diff_sum_f64(const double* a, const double* b, std::size_t n);

void cmul_f64(Complex* a, const Complex* b, std::size_t n);
void cmul_to_f64(const Complex* a, const Complex* b, Complex* out,
                 std::size_t n);
void cmul_conj_accum_f64(Complex* acc, const Complex* a, const Complex* b,
                         double w, std::size_t n);
void norm_weighted_accum_f64(double* out, const Complex* a, double w,
                             std::size_t n);
void real_mul_f64(const double* r, const Complex* a, Complex* out,
                  std::size_t n);
void scaled_real_f64(const Complex* a, double s, double* out, std::size_t n);
void scale_complex_f64(Complex* a, double s, std::size_t n);

void fft_pass_f64(Complex* data, const Complex* twiddle, int size, int len);

void bilinear_line_f64(const double* grid, int h, int w, double x0,
                       double y0, double dx, double dy, int count,
                       double* out);

/// One bilinear sample with the clamped pixel-center convention (shared by
/// every backend's scalar tail so all backends sample identically).
inline double bilinear_one(const double* grid, int h, int w, double px,
                           double py) {
  double fx = px - 0.5;
  if (fx < 0.0) fx = 0.0;
  const double fx_max = static_cast<double>(w - 1);
  if (fx > fx_max) fx = fx_max;
  double fy = py - 0.5;
  if (fy < 0.0) fy = 0.0;
  const double fy_max = static_cast<double>(h - 1);
  if (fy > fy_max) fy = fy_max;
  int x0 = static_cast<int>(fx);
  if (x0 > w - 1) x0 = w - 1;
  int y0 = static_cast<int>(fy);
  if (y0 > h - 1) y0 = h - 1;
  const int x1 = x0 + 1 < w ? x0 + 1 : w - 1;
  const int y1 = y0 + 1 < h ? y0 + 1 : h - 1;
  const double tx = fx - x0;
  const double ty = fy - y0;
  const double* row0 = grid + static_cast<std::size_t>(y0) * w;
  const double* row1 = grid + static_cast<std::size_t>(y1) * w;
  const double bottom = row0[x0] * (1 - tx) + row0[x1] * tx;
  const double top = row1[x0] * (1 - tx) + row1[x1] * tx;
  return bottom * (1 - ty) + top * ty;
}

}  // namespace ldmo::kernels::generic

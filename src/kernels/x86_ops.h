// Internal: the x86 SIMD kernel ops, written once over a per-ISA vector
// type. Not a standalone header — table_avx2.cpp and table_avx512.cpp each
// define, in an anonymous namespace of ldmo::kernels, the primitives listed
// below and then include this file, so every op is compiled once per ISA
// with that TU's -m flags and lane count.
//
// Primitives each including TU provides (D = VecD, F = VecF):
//   kDoubles, kFloats           lanes per D / F vector
//   kDotTailInLanes             dot_f32 folds its ragged tail into the
//                               lanes before the horizontal sum (true) or
//                               adds it after the sum (false)
//   VecD VecF MaskD VecI64 VecI32
//   load store load_n store_n   full and first-n-lanes memory ops (D, F)
//   splat splat_i32 ramp        broadcasts; ramp(i) = [i, i+1, ...]
//   + - * / | ^ min max abs     lane-wise arithmetic and bit logic
//   < > >= select               ordered compares and per-lane blend
//   hsum hmax                   horizontal reductions, in the ISA's order
//   round_nearest round_to_i64 exp2i is_odd bit1_to_sign
//                               exp / sincos range-reduction helpers
//   dup_re dup_im swap_re_im addsub conj interleave even_lanes
//                               complex shuffles on [re, im, re, im, ...]
//   trunc_i32 to_f64 gather     int32 index lanes for bilinear sampling
//
// Exactness: every op except the vectorized exp (sigmoid_affine_f64), the
// vectorized sincos (cis_f64) and the lane-parallel sum reductions
// (dot_f32 / loss_grad_f64 / sq_diff_sum_f64) performs the same IEEE
// mul/add/sub sequence per element as the generic backend — no FMA (the
// TUs build with -ffp-contract=off), no reassociation — so results are
// bit-identical to generic, whether a tail runs masked, scalar or through
// the generic routine (modulo the sign of zero in the first FFT stage,
// which uses a direct add/sub instead of multiplying by the 1+0i twiddle).
// The approximate ops keep each ISA's own lane count and reduction order.

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "kernels/generic_ops.h"
#include "kernels/kernels.h"

namespace ldmo::kernels {
namespace {

// Runs body(i, lanes) over [0, n) one kLanes-wide vector at a time; only
// the last step may have lanes < kLanes. The full steps pass the constant
// kLanes, so the load/store overloads below fold to plain unmasked
// accesses there.
template <std::size_t kLanes, typename Body>
inline void for_each_vec(std::size_t n, Body body) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) body(i, kLanes);
  if (i < n) body(i, n - i);
}
inline VecD load(const double* p, std::size_t lanes) {
  return lanes == kDoubles ? load(p) : load_n(p, lanes);
}
inline VecF load(const float* p, std::size_t lanes) {
  return lanes == static_cast<std::size_t>(kFloats)
             ? load(p)
             : load_n(p, static_cast<int>(lanes));
}
inline void store(double* p, std::size_t lanes, VecD v) {
  if (lanes == kDoubles)
    store(p, v);
  else
    store_n(p, lanes, v);
}
inline void store(float* p, std::size_t lanes, VecF v) {
  if (lanes == static_cast<std::size_t>(kFloats))
    store(p, v);
  else
    store_n(p, static_cast<int>(lanes), v);
}

// ---- vector exp for x <= 0 (Cody-Waite reduction + degree-12 Taylor) ----
// Max observed relative error vs libm exp is ~2 ulp on [-708, 0]; inputs
// below -708 flush to 0 (the sigmoid saturation regime).
inline VecD exp_le0(VecD x) {
  const VecD n = round_nearest(x * splat(1.4426950408889634074));
  VecD r = x - n * splat(6.93147180369123816490e-01);  // ln 2, high part
  r = r - n * splat(1.90821492927058770002e-10);       // ln 2, low part
  // Horner over Taylor coefficients 1/k!, k = 12 .. 0.
  VecD p = splat(2.08767569878680989792e-09);  // 1/12!
  p = p * r + splat(2.50521083854417187751e-08);  // 1/11!
  p = p * r + splat(2.75573192239858906526e-07);  // 1/10!
  p = p * r + splat(2.75573192239858925110e-06);  // 1/9!
  p = p * r + splat(2.48015873015873015873e-05);  // 1/8!
  p = p * r + splat(1.98412698412698412698e-04);  // 1/7!
  p = p * r + splat(1.38888888888888888889e-03);  // 1/6!
  p = p * r + splat(8.33333333333333333333e-03);  // 1/5!
  p = p * r + splat(4.16666666666666666667e-02);  // 1/4!
  p = p * r + splat(1.66666666666666666667e-01);  // 1/3!
  p = p * r + splat(0.5);
  p = p * r + splat(1.0);
  p = p * r + splat(1.0);
  // Scale by 2^n through the exponent bits (n in [-1074, 0] here; lanes
  // whose n underflows the exponent field are flushed below anyway).
  const VecD result = p * exp2i(round_to_i64(n));
  return select(x > splat(-708.0), result, splat(0.0));
}

// ---- vector sincos (Cody-Waite pi/2 reduction + Taylor on [-pi/4, pi/4]) --
// Three-part reduction keeps the reduced argument accurate to ~1e-21 * n,
// so absolute error vs libm stays ~1e-14 for |x| < 1e6 — far beyond the
// defocus phases this feeds (|phi| < ~1e3).
inline void sincos(VecD x, VecD* s_out, VecD* c_out) {
  const VecD n = round_nearest(x * splat(6.36619772367581382433e-01));
  VecD r = x - n * splat(1.57079632673412561417e+00);
  r = r - n * splat(6.07710050630396597660e-11);
  r = r - n * splat(2.02226624871116645580e-21);
  const VecD r2 = r * r;
  // sin(r) = r + r^3 P(r^2), Taylor through r^15.
  VecD ps = splat(-7.64716373181981647590e-13);      // -1/15!
  ps = ps * r2 + splat(1.60590438368216145994e-10);   // 1/13!
  ps = ps * r2 + splat(-2.50521083854417187751e-08);  // -1/11!
  ps = ps * r2 + splat(2.75573192239858906526e-06);   // 1/9!
  ps = ps * r2 + splat(-1.98412698412698412698e-04);  // -1/7!
  ps = ps * r2 + splat(8.33333333333333333333e-03);   // 1/5!
  ps = ps * r2 + splat(-1.66666666666666666667e-01);  // -1/3!
  const VecD sin_r = r + (r2 * r) * ps;
  // cos(r) = 1 - r^2/2 + r^4 Q(r^2), Taylor through r^14.
  VecD pc = splat(-1.14707455977297247139e-11);      // -1/14!
  pc = pc * r2 + splat(2.08767569878680989792e-09);   // 1/12!
  pc = pc * r2 + splat(-2.75573192239858906526e-07);  // -1/10!
  pc = pc * r2 + splat(2.48015873015873015873e-05);   // 1/8!
  pc = pc * r2 + splat(-1.38888888888888888889e-03);  // -1/6!
  pc = pc * r2 + splat(4.16666666666666666667e-02);   // 1/4!
  const VecD cos_r = (splat(1.0) - r2 * splat(0.5)) + (r2 * r2) * pc;
  // Quadrant fixup from q = n mod 4 (two's-complement low bits give the
  // positive residue for negative n too):
  //   sin(x) = [ s,  c, -s, -c][q]    cos(x) = [ c, -s, -c,  s][q]
  const VecI64 q = round_to_i64(n);
  const MaskD swap = is_odd(q);
  *s_out = select(swap, cos_r, sin_r) ^ bit1_to_sign(q);
  *c_out = select(swap, sin_r, cos_r) ^ bit1_to_sign(q + 1);
}

// Packed complex product: lanes hold [re0, im0, re1, im1, ...].
inline VecD cmul(VecD a, VecD b) {
  return addsub(dup_re(a) * b, dup_im(a) * swap_re_im(b));
}

constexpr int kBlock = 64;  // same cache blocking as the generic backend

void gemm_rows_f32(const float* a, const float* b, float* c, int i_begin,
                   int i_end, int k, int n) {
  for (int i0 = i_begin; i0 < i_end; i0 += kBlock) {
    const int i1 = std::min(i0 + kBlock, i_end);
    for (int p0 = 0; p0 < k; p0 += kBlock) {
      const int p1 = std::min(p0 + kBlock, k);
      for (int j0 = 0; j0 < n; j0 += kBlock) {
        const int j1 = std::min(j0 + kBlock, n);
        for (int i = i0; i < i1; ++i) {
          const float* arow = a + static_cast<std::size_t>(i) * k;
          float* crow = c + static_cast<std::size_t>(i) * n;
          int j = j0;
          // Four-vector register tile: accumulate the whole p-block in
          // registers, then store. Each c[j] sees the same p-ascending
          // add sequence as the generic loop — bit-identical.
          for (; j + 4 * kFloats <= j1; j += 4 * kFloats) {
            VecF acc0 = load(crow + j);
            VecF acc1 = load(crow + j + kFloats);
            VecF acc2 = load(crow + j + 2 * kFloats);
            VecF acc3 = load(crow + j + 3 * kFloats);
            for (int p = p0; p < p1; ++p) {
              const VecF av = splat(arow[p]);
              const float* brow = b + static_cast<std::size_t>(p) * n + j;
              acc0 = acc0 + av * load(brow);
              acc1 = acc1 + av * load(brow + kFloats);
              acc2 = acc2 + av * load(brow + 2 * kFloats);
              acc3 = acc3 + av * load(brow + 3 * kFloats);
            }
            store(crow + j, acc0);
            store(crow + j + kFloats, acc1);
            store(crow + j + 2 * kFloats, acc2);
            store(crow + j + 3 * kFloats, acc3);
          }
          for (; j + kFloats <= j1; j += kFloats) {
            VecF acc = load(crow + j);
            for (int p = p0; p < p1; ++p)
              acc = acc + splat(arow[p]) *
                              load(b + static_cast<std::size_t>(p) * n + j);
            store(crow + j, acc);
          }
          if (j < j1) {
            const int lanes = j1 - j;
            VecF acc = load_n(crow + j, lanes);
            for (int p = p0; p < p1; ++p)
              acc = acc + splat(arow[p]) *
                              load_n(b + static_cast<std::size_t>(p) * n + j,
                                     lanes);
            store_n(crow + j, lanes, acc);
          }
        }
      }
    }
  }
}

void axpy_f32(float alpha, const float* x, float* y, int n) {
  const VecF va = splat(alpha);
  for_each_vec<kFloats>(n, [&](std::size_t i, std::size_t lanes) {
    store(y + i, lanes, load(y + i, lanes) + va * load(x + i, lanes));
  });
}

float dot_f32(const float* x, const float* y, int n) {
  VecF acc = splat(0.0f);
  int i = 0;
  for (; i + kFloats <= n; i += kFloats)
    acc = acc + load(x + i) * load(y + i);
  if constexpr (kDotTailInLanes) {
    if (i < n) acc = acc + load_n(x + i, n - i) * load_n(y + i, n - i);
    return hsum(acc);
  }
  float sum = hsum(acc);
  for (; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

void sigmoid_affine_f64(const double* x, double* out, std::size_t n,
                        double scale, double shift) {
  const VecD one = splat(1.0);
  std::size_t i = 0;
  for (; i + kDoubles <= n; i += kDoubles) {
    const VecD z = splat(scale) * (load(x + i) - splat(shift));
    const VecD e = exp_le0(z | splat(-0.0));  // exp(-|z|)
    const VecD denom = one + e;
    // z >= 0: 1 / (1 + e^-z); z < 0: e^z / (1 + e^z).
    store(out + i, select(z >= splat(0.0), one / denom, e / denom));
  }
  if (i < n) generic::sigmoid_affine_f64(x + i, out + i, n - i, scale, shift);
}

void cis_f64(const double* phase, Complex* out, std::size_t n) {
  double* op = reinterpret_cast<double*>(out);
  std::size_t i = 0;
  for (; i + kDoubles <= n; i += kDoubles) {
    VecD s, c, lo, hi;
    sincos(load(phase + i), &s, &c);
    interleave(c, s, &lo, &hi);
    store(op + 2 * i, lo);
    store(op + 2 * i + kDoubles, hi);
  }
  if (i < n) generic::cis_f64(phase + i, out + i, n - i);
}

void resist_deriv_f64(const double* t, double* out, std::size_t n,
                      double theta) {
  for_each_vec<kDoubles>(n, [&](std::size_t i, std::size_t lanes) {
    const VecD v = load(t + i, lanes);
    store(out + i, lanes, (splat(theta) * v) * (splat(1.0) - v));
  });
}

void add_clamp1_f64(const double* a, const double* b, double* out,
                    std::size_t n) {
  for_each_vec<kDoubles>(n, [&](std::size_t i, std::size_t lanes) {
    store(out + i, lanes,
          min(load(a + i, lanes) + load(b + i, lanes), splat(1.0)));
  });
}

void add_f64(const double* a, double* out, std::size_t n) {
  for_each_vec<kDoubles>(n, [&](std::size_t i, std::size_t lanes) {
    store(out + i, lanes, load(out + i, lanes) + load(a + i, lanes));
  });
}

void clamp_max_f64(double* a, std::size_t n, double hi) {
  for_each_vec<kDoubles>(n, [&](std::size_t i, std::size_t lanes) {
    store(a + i, lanes, min(load(a + i, lanes), splat(hi)));
  });
}

double loss_grad_f64(const double* t, const double* target,
                     const double* weights, double* dldt, std::size_t n) {
  VecD acc = splat(0.0);
  std::size_t i = 0;
  for (; i + kDoubles <= n; i += kDoubles) {
    const VecD d = load(t + i) - load(target + i);
    const VecD w = weights ? load(weights + i) : splat(1.0);
    acc = acc + (w * d) * d;
    store(dldt + i, (splat(2.0) * w) * d);
  }
  double loss = hsum(acc);
  for (; i < n; ++i) {
    const double w = weights ? weights[i] : 1.0;
    const double d = t[i] - target[i];
    loss += w * d * d;
    dldt[i] = 2.0 * w * d;
  }
  return loss;
}

double max_abs_f64(const double* x, std::size_t n) {
  VecD acc = splat(0.0);
  std::size_t i = 0;
  for (; i + kDoubles <= n; i += kDoubles) acc = max(acc, abs(load(x + i)));
  double m = hmax(acc);
  for (; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

void descend_f64(double* p, const double* g, double scale, std::size_t n) {
  for_each_vec<kDoubles>(n, [&](std::size_t i, std::size_t lanes) {
    store(p + i, lanes, load(p + i, lanes) - splat(scale) * load(g + i, lanes));
  });
}

void sigmoid_chain_f64(double* g, const double* m, double theta,
                       std::size_t n) {
  for_each_vec<kDoubles>(n, [&](std::size_t i, std::size_t lanes) {
    const VecD mv = load(m + i, lanes);
    const VecD factor = (splat(theta) * mv) * (splat(1.0) - mv);
    store(g + i, lanes, load(g + i, lanes) * factor);
  });
}

double sq_diff_sum_f64(const double* a, const double* b, std::size_t n) {
  VecD acc = splat(0.0);
  std::size_t i = 0;
  for (; i + kDoubles <= n; i += kDoubles) {
    const VecD d = load(a + i) - load(b + i);
    acc = acc + d * d;
  }
  double sum = hsum(acc);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

// The complex ops below walk the interleaved [re, im] doubles directly, so
// n complex values are 2n doubles.

void cmul_f64(Complex* a, const Complex* b, std::size_t n) {
  double* ap = reinterpret_cast<double*>(a);
  const double* bp = reinterpret_cast<const double*>(b);
  for_each_vec<kDoubles>(2 * n, [&](std::size_t i, std::size_t lanes) {
    store(ap + i, lanes, cmul(load(ap + i, lanes), load(bp + i, lanes)));
  });
}

void cmul_to_f64(const Complex* a, const Complex* b, Complex* out,
                 std::size_t n) {
  const double* ap = reinterpret_cast<const double*>(a);
  const double* bp = reinterpret_cast<const double*>(b);
  double* op = reinterpret_cast<double*>(out);
  for_each_vec<kDoubles>(2 * n, [&](std::size_t i, std::size_t lanes) {
    store(op + i, lanes, cmul(load(ap + i, lanes), load(bp + i, lanes)));
  });
}

void cmul_conj_accum_f64(Complex* acc, const Complex* a, const Complex* b,
                         double w, std::size_t n) {
  double* cp = reinterpret_cast<double*>(acc);
  const double* ap = reinterpret_cast<const double*>(a);
  const double* bp = reinterpret_cast<const double*>(b);
  for_each_vec<kDoubles>(2 * n, [&](std::size_t i, std::size_t lanes) {
    const VecD wa = splat(w) * load(ap + i, lanes);
    store(cp + i, lanes,
          load(cp + i, lanes) + cmul(wa, conj(load(bp + i, lanes))));
  });
}

void norm_weighted_accum_f64(double* out, const Complex* a, double w,
                             std::size_t n) {
  const double* ap = reinterpret_cast<const double*>(a);
  std::size_t i = 0;
  for (; i + kDoubles <= n; i += kDoubles) {
    const VecD v0 = load(ap + 2 * i);
    const VecD v1 = load(ap + 2 * i + kDoubles);
    const VecD sq0 = v0 * v0;
    const VecD sq1 = v1 * v1;
    // Even lanes of sq + swapped sq hold re^2 + im^2.
    const VecD norms =
        even_lanes(sq0 + swap_re_im(sq0), sq1 + swap_re_im(sq1));
    store(out + i, load(out + i) + splat(w) * norms);
  }
  if (i < n) generic::norm_weighted_accum_f64(out + i, a + i, w, n - i);
}

void real_mul_f64(const double* r, const Complex* a, Complex* out,
                  std::size_t n) {
  const double* ap = reinterpret_cast<const double*>(a);
  double* op = reinterpret_cast<double*>(out);
  std::size_t i = 0;
  for (; i + kDoubles <= n; i += kDoubles) {
    VecD lo, hi;  // [r0 r0 r1 r1 ...] and the upper half likewise
    interleave(load(r + i), load(r + i), &lo, &hi);
    store(op + 2 * i, lo * load(ap + 2 * i));
    store(op + 2 * i + kDoubles, hi * load(ap + 2 * i + kDoubles));
  }
  if (i < n) generic::real_mul_f64(r + i, a + i, out + i, n - i);
}

void scaled_real_f64(const Complex* a, double s, double* out,
                     std::size_t n) {
  const double* ap = reinterpret_cast<const double*>(a);
  std::size_t i = 0;
  for (; i + kDoubles <= n; i += kDoubles)
    store(out + i, splat(s) * even_lanes(load(ap + 2 * i),
                                         load(ap + 2 * i + kDoubles)));
  if (i < n) generic::scaled_real_f64(a + i, s, out + i, n - i);
}

void scale_complex_f64(Complex* a, double s, std::size_t n) {
  double* ap = reinterpret_cast<double*>(a);
  for_each_vec<kDoubles>(2 * n, [&](std::size_t i, std::size_t lanes) {
    store(ap + i, lanes, splat(s) * load(ap + i, lanes));
  });
}

void fft_pass_f64(Complex* data, const Complex* twiddle, int size, int len) {
  double* dp = reinterpret_cast<double*>(data);
  const int half = len >> 1;
  if (half == 1) {
    // Twiddle is 1+0i: plain add/sub butterfly, one per 2 complexes.
    for (int s = 0; s < 2 * size; s += 4) {
      const __m128d a = _mm_loadu_pd(dp + s);
      const __m128d b = _mm_loadu_pd(dp + s + 2);
      _mm_storeu_pd(dp + s, _mm_add_pd(a, b));
      _mm_storeu_pd(dp + s + 2, _mm_sub_pd(a, b));
    }
    return;
  }
  const double* tp = reinterpret_cast<const double*>(twiddle);
  if (half == 2) {
    // One 256-bit butterfly pair per block: narrower than an AVX-512
    // VecD, and both ISAs have 256-bit AVX.
    const __m256d w = _mm256_loadu_pd(tp);
    const __m256d w_re = _mm256_movedup_pd(w);
    const __m256d w_im = _mm256_permute_pd(w, 0xF);
    for (int start = 0; start < size; start += len) {
      double* ap = dp + 2 * start;
      const __m256d va = _mm256_loadu_pd(ap);
      const __m256d vb = _mm256_loadu_pd(ap + 4);
      const __m256d t = _mm256_addsub_pd(
          _mm256_mul_pd(w_re, vb),
          _mm256_mul_pd(w_im, _mm256_permute_pd(vb, 0x5)));
      _mm256_storeu_pd(ap + 4, _mm256_sub_pd(va, t));
      _mm256_storeu_pd(ap, _mm256_add_pd(va, t));
    }
    return;
  }
  // half >= 4 is a power of two, so 2 * half is a multiple of kDoubles:
  // no tail.
  for (int start = 0; start < size; start += len) {
    double* ap = dp + 2 * start;
    double* bp = ap + 2 * half;
    for (int k = 0; k < 2 * half; k += static_cast<int>(kDoubles)) {
      const VecD va = load(ap + k);
      const VecD t = cmul(load(tp + k), load(bp + k));
      store(bp + k, va - t);
      store(ap + k, va + t);
    }
  }
}

void bilinear_line_f64(const double* grid, int h, int w, double x0,
                       double y0, double dx, double dy, int count,
                       double* out) {
  const VecD one = splat(1.0);
  const VecD zero = splat(0.0);
  const VecD fx_max = splat(static_cast<double>(w - 1));
  const VecD fy_max = splat(static_cast<double>(h - 1));
  const VecI32 ix_max = splat_i32(w - 1);
  const VecI32 iy_max = splat_i32(h - 1);
  const VecI32 iw = splat_i32(w);
  const VecI32 ione = splat_i32(1);
  int i = 0;
  for (; i + static_cast<int>(kDoubles) <= count;
       i += static_cast<int>(kDoubles)) {
    const VecD iv = ramp(i);
    const VecD px = splat(x0) + iv * splat(dx);
    const VecD py = splat(y0) + iv * splat(dy);
    const VecD fx = max(zero, min(px - splat(0.5), fx_max));
    const VecD fy = max(zero, min(py - splat(0.5), fy_max));
    const VecI32 x0i = min(trunc_i32(fx), ix_max);
    const VecI32 y0i = min(trunc_i32(fy), iy_max);
    const VecI32 x1i = min(x0i + ione, ix_max);
    const VecI32 y1i = min(y0i + ione, iy_max);
    const VecD tx = fx - to_f64(x0i);
    const VecD ty = fy - to_f64(y0i);
    const VecI32 row0 = y0i * iw;
    const VecI32 row1 = y1i * iw;
    const VecD one_tx = one - tx;
    const VecD bottom =
        gather(grid, row0 + x0i) * one_tx + gather(grid, row0 + x1i) * tx;
    const VecD top =
        gather(grid, row1 + x0i) * one_tx + gather(grid, row1 + x1i) * tx;
    store(out + i, bottom * (one - ty) + top * ty);
  }
  for (; i < count; ++i)
    out[i] = generic::bilinear_one(grid, h, w, x0 + i * dx, y0 + i * dy);
}

/// This TU's ops, in KernelTable field order.
KernelTable x86_table(Backend backend, const char* name) {
  return {backend,
          name,
          &gemm_rows_f32,
          &axpy_f32,
          &dot_f32,
          &sigmoid_affine_f64,
          &cis_f64,
          &resist_deriv_f64,
          &add_clamp1_f64,
          &add_f64,
          &clamp_max_f64,
          &loss_grad_f64,
          &max_abs_f64,
          &descend_f64,
          &sigmoid_chain_f64,
          &sq_diff_sum_f64,
          &cmul_f64,
          &cmul_to_f64,
          &cmul_conj_accum_f64,
          &norm_weighted_accum_f64,
          &real_mul_f64,
          &scaled_real_f64,
          &scale_complex_f64,
          &fft_pass_f64,
          &bilinear_line_f64};
}

}  // namespace
}  // namespace ldmo::kernels

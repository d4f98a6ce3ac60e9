// NEON kernel backend (128-bit: 2 doubles / 4 floats / 1 complex<double>).
//
// AArch64 only (NEON with float64x2 is architecturally mandatory there).
// Deliberately conservative: plain vmul/vadd/vsub — never vmla/vfma, which
// would contract to fused multiply-add and break the cross-backend
// exactness contract. Full table coverage: the exp-based sigmoid and the
// sincos phasor use the same Cody-Waite reductions as the x86 TUs (2-wide),
// the sum reductions accumulate lane-parallel (approximate class, same as
// AVX2/AVX-512), and the bilinear sampler vectorizes the coordinate math
// with scalar gathers — the per-sample arithmetic order matches generic
// exactly, keeping it in the exact class.
#include "kernels/kernels.h"

#ifdef LDMO_KERNELS_NEON

#include <arm_neon.h>

#include <algorithm>
#include <cstddef>

#include "kernels/generic_ops.h"

namespace ldmo::kernels {
namespace {

using generic::bilinear_one;

// ---- vector exp for x <= 0: same reduction/polynomial as the x86 TUs ----
inline float64x2_t exp_le0_f64x2(float64x2_t x) {
  const float64x2_t kLog2e = vdupq_n_f64(1.4426950408889634074);
  const float64x2_t kLn2Hi = vdupq_n_f64(6.93147180369123816490e-01);
  const float64x2_t kLn2Lo = vdupq_n_f64(1.90821492927058770002e-10);
  const float64x2_t n = vrndnq_f64(vmulq_f64(x, kLog2e));
  float64x2_t r = vsubq_f64(x, vmulq_f64(n, kLn2Hi));
  r = vsubq_f64(r, vmulq_f64(n, kLn2Lo));
  // Horner over Taylor coefficients 1/k!, k = 12 .. 0.
  float64x2_t p = vdupq_n_f64(2.08767569878680989792e-09);   // 1/12!
  p = vaddq_f64(vmulq_f64(p, r),
                vdupq_n_f64(2.50521083854417187751e-08));  // 1/11!
  p = vaddq_f64(vmulq_f64(p, r),
                vdupq_n_f64(2.75573192239858906526e-07));  // 1/10!
  p = vaddq_f64(vmulq_f64(p, r),
                vdupq_n_f64(2.75573192239858925110e-06));  // 1/9!
  p = vaddq_f64(vmulq_f64(p, r),
                vdupq_n_f64(2.48015873015873015873e-05));  // 1/8!
  p = vaddq_f64(vmulq_f64(p, r),
                vdupq_n_f64(1.98412698412698412698e-04));  // 1/7!
  p = vaddq_f64(vmulq_f64(p, r),
                vdupq_n_f64(1.38888888888888888889e-03));  // 1/6!
  p = vaddq_f64(vmulq_f64(p, r),
                vdupq_n_f64(8.33333333333333333333e-03));  // 1/5!
  p = vaddq_f64(vmulq_f64(p, r),
                vdupq_n_f64(4.16666666666666666667e-02));  // 1/4!
  p = vaddq_f64(vmulq_f64(p, r),
                vdupq_n_f64(1.66666666666666666667e-01));  // 1/3!
  p = vaddq_f64(vmulq_f64(p, r), vdupq_n_f64(0.5));
  p = vaddq_f64(vmulq_f64(p, r), vdupq_n_f64(1.0));
  p = vaddq_f64(vmulq_f64(p, r), vdupq_n_f64(1.0));
  // Scale by 2^n through the exponent bits; flush lanes below -708.
  const int64x2_t n64 = vcvtq_s64_f64(n);  // n integral: exact
  const int64x2_t bits =
      vshlq_n_s64(vaddq_s64(n64, vdupq_n_s64(1023)), 52);
  const float64x2_t result = vmulq_f64(p, vreinterpretq_f64_s64(bits));
  const uint64x2_t ok = vcgtq_f64(x, vdupq_n_f64(-708.0));
  return vreinterpretq_f64_u64(
      vandq_u64(vreinterpretq_u64_f64(result), ok));
}

// ---- vector sincos (Cody-Waite pi/2 reduction + Taylor on [-pi/4, pi/4]),
// same constants/polynomials as the x86 TUs ----
inline void sincos_f64x2(float64x2_t x, float64x2_t* s_out,
                         float64x2_t* c_out) {
  const float64x2_t kTwoOverPi = vdupq_n_f64(6.36619772367581382433e-01);
  const float64x2_t kPio2Hi = vdupq_n_f64(1.57079632673412561417e+00);
  const float64x2_t kPio2Mid = vdupq_n_f64(6.07710050630396597660e-11);
  const float64x2_t kPio2Lo = vdupq_n_f64(2.02226624871116645580e-21);
  const float64x2_t n = vrndnq_f64(vmulq_f64(x, kTwoOverPi));
  float64x2_t r = vsubq_f64(x, vmulq_f64(n, kPio2Hi));
  r = vsubq_f64(r, vmulq_f64(n, kPio2Mid));
  r = vsubq_f64(r, vmulq_f64(n, kPio2Lo));
  const float64x2_t r2 = vmulq_f64(r, r);
  // sin(r) = r + r^3 P(r^2), Taylor through r^15.
  float64x2_t ps = vdupq_n_f64(-7.64716373181981647590e-13);   // -1/15!
  ps = vaddq_f64(vmulq_f64(ps, r2),
                 vdupq_n_f64(1.60590438368216145994e-10));  // 1/13!
  ps = vaddq_f64(vmulq_f64(ps, r2),
                 vdupq_n_f64(-2.50521083854417187751e-08));  // -1/11!
  ps = vaddq_f64(vmulq_f64(ps, r2),
                 vdupq_n_f64(2.75573192239858906526e-06));  // 1/9!
  ps = vaddq_f64(vmulq_f64(ps, r2),
                 vdupq_n_f64(-1.98412698412698412698e-04));  // -1/7!
  ps = vaddq_f64(vmulq_f64(ps, r2),
                 vdupq_n_f64(8.33333333333333333333e-03));  // 1/5!
  ps = vaddq_f64(vmulq_f64(ps, r2),
                 vdupq_n_f64(-1.66666666666666666667e-01));  // -1/3!
  const float64x2_t sin_r =
      vaddq_f64(r, vmulq_f64(vmulq_f64(r2, r), ps));
  // cos(r) = 1 - r^2/2 + r^4 Q(r^2), Taylor through r^14.
  float64x2_t pc = vdupq_n_f64(-1.14707455977297247139e-11);   // -1/14!
  pc = vaddq_f64(vmulq_f64(pc, r2),
                 vdupq_n_f64(2.08767569878680989792e-09));  // 1/12!
  pc = vaddq_f64(vmulq_f64(pc, r2),
                 vdupq_n_f64(-2.75573192239858906526e-07));  // -1/10!
  pc = vaddq_f64(vmulq_f64(pc, r2),
                 vdupq_n_f64(2.48015873015873015873e-05));  // 1/8!
  pc = vaddq_f64(vmulq_f64(pc, r2),
                 vdupq_n_f64(-1.38888888888888888889e-03));  // -1/6!
  pc = vaddq_f64(vmulq_f64(pc, r2),
                 vdupq_n_f64(4.16666666666666666667e-02));  // 1/4!
  const float64x2_t cos_r = vaddq_f64(
      vsubq_f64(vdupq_n_f64(1.0), vmulq_f64(r2, vdupq_n_f64(0.5))),
      vmulq_f64(vmulq_f64(r2, r2), pc));
  // Quadrant fixup from q = n mod 4:
  //   sin(x) = [ s,  c, -s, -c][q]    cos(x) = [ c, -s, -c,  s][q]
  const int64x2_t q = vcvtq_s64_f64(n);
  const int64x2_t one = vdupq_n_s64(1);
  const int64x2_t two = vdupq_n_s64(2);
  const uint64x2_t swap = vceqq_s64(vandq_s64(q, one), one);
  const uint64x2_t sin_sign = vreinterpretq_u64_s64(
      vshlq_n_s64(vandq_s64(q, two), 62));
  const uint64x2_t cos_sign = vreinterpretq_u64_s64(
      vshlq_n_s64(vandq_s64(vaddq_s64(q, one), two), 62));
  const float64x2_t s = vbslq_f64(swap, cos_r, sin_r);
  const float64x2_t c = vbslq_f64(swap, sin_r, cos_r);
  *s_out = vreinterpretq_f64_u64(
      veorq_u64(vreinterpretq_u64_f64(s), sin_sign));
  *c_out = vreinterpretq_f64_u64(
      veorq_u64(vreinterpretq_u64_f64(c), cos_sign));
}

// Packed complex product for one complex<double> in a float64x2 [re, im].
inline float64x2_t cmul_f64x2(float64x2_t a, float64x2_t b) {
  const float64x2_t ar = vdupq_laneq_f64(a, 0);
  const float64x2_t ai = vdupq_laneq_f64(a, 1);
  const float64x2_t bs = vextq_f64(b, b, 1);  // [im, re]
  const float64x2_t t1 = vmulq_f64(ar, b);    // [ar*br, ar*bi]
  const float64x2_t t2 = vmulq_f64(ai, bs);   // [ai*bi, ai*br]
  // Lane 0: t1 - t2, lane 1: t1 + t2. x + (-y) is IEEE-identical to x - y.
  const float64x2_t signs = {-1.0, 1.0};
  return vaddq_f64(t1, vmulq_f64(t2, signs));
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
          for (; j + 16 <= j1; j += 16) {
            float32x4_t acc0 = vld1q_f32(crow + j);
            float32x4_t acc1 = vld1q_f32(crow + j + 4);
            float32x4_t acc2 = vld1q_f32(crow + j + 8);
            float32x4_t acc3 = vld1q_f32(crow + j + 12);
            for (int p = p0; p < p1; ++p) {
              const float32x4_t av = vdupq_n_f32(arow[p]);
              const float* brow = b + static_cast<std::size_t>(p) * n + j;
              acc0 = vaddq_f32(acc0, vmulq_f32(av, vld1q_f32(brow)));
              acc1 = vaddq_f32(acc1, vmulq_f32(av, vld1q_f32(brow + 4)));
              acc2 = vaddq_f32(acc2, vmulq_f32(av, vld1q_f32(brow + 8)));
              acc3 = vaddq_f32(acc3, vmulq_f32(av, vld1q_f32(brow + 12)));
            }
            vst1q_f32(crow + j, acc0);
            vst1q_f32(crow + j + 4, acc1);
            vst1q_f32(crow + j + 8, acc2);
            vst1q_f32(crow + j + 12, acc3);
          }
          for (; j + 4 <= j1; j += 4) {
            float32x4_t acc = vld1q_f32(crow + j);
            for (int p = p0; p < p1; ++p) {
              const float32x4_t av = vdupq_n_f32(arow[p]);
              const float* brow = b + static_cast<std::size_t>(p) * n + j;
              acc = vaddq_f32(acc, vmulq_f32(av, vld1q_f32(brow)));
            }
            vst1q_f32(crow + j, acc);
          }
          for (int p = p0; p < p1 && j < j1; ++p) {
            const float av = arow[p];
            const float* brow = b + static_cast<std::size_t>(p) * n;
            for (int jj = j; jj < j1; ++jj) crow[jj] += av * brow[jj];
          }
        }
      }
    }
  }
}

void axpy_f32(float alpha, const float* x, float* y, int n) {
  const float32x4_t va = vdupq_n_f32(alpha);
  int i = 0;
  for (; i + 4 <= n; i += 4)
    vst1q_f32(y + i,
              vaddq_f32(vld1q_f32(y + i), vmulq_f32(va, vld1q_f32(x + i))));
  for (; i < n; ++i) y[i] += alpha * x[i];
}

float dot_f32(const float* x, const float* y, int n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  int i = 0;
  for (; i + 4 <= n; i += 4)
    acc = vaddq_f32(acc, vmulq_f32(vld1q_f32(x + i), vld1q_f32(y + i)));
  float sum = (vgetq_lane_f32(acc, 0) + vgetq_lane_f32(acc, 1)) +
              (vgetq_lane_f32(acc, 2) + vgetq_lane_f32(acc, 3));
  for (; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

void sigmoid_affine_f64(const double* x, double* out, std::size_t n,
                        double scale, double shift) {
  const float64x2_t vscale = vdupq_n_f64(scale);
  const float64x2_t vshift = vdupq_n_f64(shift);
  const float64x2_t kOne = vdupq_n_f64(1.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t z =
        vmulq_f64(vscale, vsubq_f64(vld1q_f64(x + i), vshift));
    const float64x2_t e = exp_le0_f64x2(vnegq_f64(vabsq_f64(z)));
    const float64x2_t denom = vaddq_f64(kOne, e);
    const float64x2_t pos = vdivq_f64(kOne, denom);  // z >= 0 branch
    const float64x2_t neg = vdivq_f64(e, denom);     // z <  0 branch
    const uint64x2_t take_pos = vcgeq_f64(z, vdupq_n_f64(0.0));
    vst1q_f64(out + i, vbslq_f64(take_pos, pos, neg));
  }
  if (i < n) generic::sigmoid_affine_f64(x + i, out + i, n - i, scale, shift);
}

void cis_f64(const double* phase, Complex* out, std::size_t n) {
  double* op = reinterpret_cast<double*>(out);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2, op += 4) {
    float64x2x2_t cs;
    sincos_f64x2(vld1q_f64(phase + i), &cs.val[1], &cs.val[0]);
    vst2q_f64(op, cs);  // interleaves to [c0 s0 c1 s1]
  }
  if (i < n) generic::cis_f64(phase + i, out + i, n - i);
}

void resist_deriv_f64(const double* t, double* out, std::size_t n,
                      double theta) {
  const float64x2_t vt = vdupq_n_f64(theta);
  const float64x2_t kOne = vdupq_n_f64(1.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v = vld1q_f64(t + i);
    vst1q_f64(out + i,
              vmulq_f64(vmulq_f64(vt, v), vsubq_f64(kOne, v)));
  }
  for (; i < n; ++i) out[i] = theta * t[i] * (1.0 - t[i]);
}

void add_clamp1_f64(const double* a, const double* b, double* out,
                    std::size_t n) {
  const float64x2_t kOne = vdupq_n_f64(1.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(out + i,
              vminq_f64(vaddq_f64(vld1q_f64(a + i), vld1q_f64(b + i)),
                        kOne));
  for (; i < n; ++i) out[i] = std::min(a[i] + b[i], 1.0);
}

void add_f64(const double* a, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(out + i, vaddq_f64(vld1q_f64(out + i), vld1q_f64(a + i)));
  for (; i < n; ++i) out[i] += a[i];
}

void clamp_max_f64(double* a, std::size_t n, double hi) {
  const float64x2_t vhi = vdupq_n_f64(hi);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(a + i, vminq_f64(vld1q_f64(a + i), vhi));
  for (; i < n; ++i) a[i] = std::min(a[i], hi);
}

double loss_grad_f64(const double* t, const double* target,
                     const double* weights, double* dldt, std::size_t n) {
  const float64x2_t kTwo = vdupq_n_f64(2.0);
  const float64x2_t kOne = vdupq_n_f64(1.0);
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t d =
        vsubq_f64(vld1q_f64(t + i), vld1q_f64(target + i));
    const float64x2_t w = weights ? vld1q_f64(weights + i) : kOne;
    const float64x2_t wd = vmulq_f64(w, d);
    acc = vaddq_f64(acc, vmulq_f64(wd, d));
    vst1q_f64(dldt + i, vmulq_f64(vmulq_f64(kTwo, w), d));
  }
  double loss = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; i < n; ++i) {
    const double w = weights ? weights[i] : 1.0;
    const double d = t[i] - target[i];
    loss += w * d * d;
    dldt[i] = 2.0 * w * d;
  }
  return loss;
}

double max_abs_f64(const double* x, std::size_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    acc = vmaxq_f64(acc, vabsq_f64(vld1q_f64(x + i)));
  double m = std::max(vgetq_lane_f64(acc, 0), vgetq_lane_f64(acc, 1));
  for (; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

void descend_f64(double* p, const double* g, double scale, std::size_t n) {
  const float64x2_t vs = vdupq_n_f64(scale);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2)
    vst1q_f64(p + i, vsubq_f64(vld1q_f64(p + i),
                               vmulq_f64(vs, vld1q_f64(g + i))));
  for (; i < n; ++i) p[i] -= scale * g[i];
}

void sigmoid_chain_f64(double* g, const double* m, double theta,
                       std::size_t n) {
  const float64x2_t vt = vdupq_n_f64(theta);
  const float64x2_t kOne = vdupq_n_f64(1.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t mv = vld1q_f64(m + i);
    const float64x2_t factor =
        vmulq_f64(vmulq_f64(vt, mv), vsubq_f64(kOne, mv));
    vst1q_f64(g + i, vmulq_f64(vld1q_f64(g + i), factor));
  }
  for (; i < n; ++i) g[i] *= theta * m[i] * (1.0 - m[i]);
}

double sq_diff_sum_f64(const double* a, const double* b, std::size_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t d = vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i));
    acc = vaddq_f64(acc, vmulq_f64(d, d));
  }
  double sum = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

void cmul_f64(Complex* a, const Complex* b, std::size_t n) {
  double* ap = reinterpret_cast<double*>(a);
  const double* bp = reinterpret_cast<const double*>(b);
  for (std::size_t i = 0; i < n; ++i, ap += 2, bp += 2)
    vst1q_f64(ap, cmul_f64x2(vld1q_f64(ap), vld1q_f64(bp)));
}

void cmul_to_f64(const Complex* a, const Complex* b, Complex* out,
                 std::size_t n) {
  const double* ap = reinterpret_cast<const double*>(a);
  const double* bp = reinterpret_cast<const double*>(b);
  double* op = reinterpret_cast<double*>(out);
  for (std::size_t i = 0; i < n; ++i, ap += 2, bp += 2, op += 2)
    vst1q_f64(op, cmul_f64x2(vld1q_f64(ap), vld1q_f64(bp)));
}

void cmul_conj_accum_f64(Complex* acc, const Complex* a, const Complex* b,
                         double w, std::size_t n) {
  const float64x2_t vw = vdupq_n_f64(w);
  const float64x2_t conj = {1.0, -1.0};
  double* cp = reinterpret_cast<double*>(acc);
  const double* ap = reinterpret_cast<const double*>(a);
  const double* bp = reinterpret_cast<const double*>(b);
  for (std::size_t i = 0; i < n; ++i, cp += 2, ap += 2, bp += 2) {
    const float64x2_t wa = vmulq_f64(vw, vld1q_f64(ap));
    const float64x2_t bc = vmulq_f64(vld1q_f64(bp), conj);
    vst1q_f64(cp, vaddq_f64(vld1q_f64(cp), cmul_f64x2(wa, bc)));
  }
}

void norm_weighted_accum_f64(double* out, const Complex* a, double w,
                             std::size_t n) {
  const double* ap = reinterpret_cast<const double*>(a);
  for (std::size_t i = 0; i < n; ++i, ap += 2) {
    const double re = ap[0], im = ap[1];
    out[i] += w * (re * re + im * im);
  }
}

void real_mul_f64(const double* r, const Complex* a, Complex* out,
                  std::size_t n) {
  const double* ap = reinterpret_cast<const double*>(a);
  double* op = reinterpret_cast<double*>(out);
  for (std::size_t i = 0; i < n; ++i, ap += 2, op += 2)
    vst1q_f64(op, vmulq_f64(vdupq_n_f64(r[i]), vld1q_f64(ap)));
}

void scaled_real_f64(const Complex* a, double s, double* out,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = s * a[i].real();
}

void scale_complex_f64(Complex* a, double s, std::size_t n) {
  const float64x2_t vs = vdupq_n_f64(s);
  double* ap = reinterpret_cast<double*>(a);
  for (std::size_t i = 0; i < n; ++i, ap += 2)
    vst1q_f64(ap, vmulq_f64(vs, vld1q_f64(ap)));
}

void fft_pass_f64(Complex* data, const Complex* twiddle, int size, int len) {
  double* dp = reinterpret_cast<double*>(data);
  const int half = len >> 1;
  if (half == 1) {
    for (int s = 0; s < 2 * size; s += 4) {
      const float64x2_t a = vld1q_f64(dp + s);
      const float64x2_t b = vld1q_f64(dp + s + 2);
      vst1q_f64(dp + s, vaddq_f64(a, b));
      vst1q_f64(dp + s + 2, vsubq_f64(a, b));
    }
    return;
  }
  const double* tp = reinterpret_cast<const double*>(twiddle);
  for (int start = 0; start < size; start += len) {
    double* ap = dp + 2 * start;
    double* bp = ap + 2 * half;
    for (int k = 0; k < half; ++k) {
      const float64x2_t w = vld1q_f64(tp + 2 * k);
      const float64x2_t va = vld1q_f64(ap + 2 * k);
      const float64x2_t vb = vld1q_f64(bp + 2 * k);
      const float64x2_t t = cmul_f64x2(w, vb);
      vst1q_f64(bp + 2 * k, vsubq_f64(va, t));
      vst1q_f64(ap + 2 * k, vaddq_f64(va, t));
    }
  }
}

void bilinear_line_f64(const double* grid, int h, int w, double x0,
                       double y0, double dx, double dy, int count,
                       double* out) {
  // Coordinate math and interpolation are 2-wide; the four corner loads
  // are scalar gathers. Per-sample arithmetic order matches bilinear_one
  // exactly, so this stays in the exact class.
  const float64x2_t vdx = vdupq_n_f64(dx);
  const float64x2_t vdy = vdupq_n_f64(dy);
  const float64x2_t vx0 = vdupq_n_f64(x0);
  const float64x2_t vy0 = vdupq_n_f64(y0);
  const float64x2_t kHalf = vdupq_n_f64(0.5);
  const float64x2_t kOne = vdupq_n_f64(1.0);
  const float64x2_t kZero = vdupq_n_f64(0.0);
  const float64x2_t fxmax = vdupq_n_f64(static_cast<double>(w - 1));
  const float64x2_t fymax = vdupq_n_f64(static_cast<double>(h - 1));
  int i = 0;
  for (; i + 2 <= count; i += 2) {
    const float64x2_t iv = {static_cast<double>(i),
                            static_cast<double>(i + 1)};
    const float64x2_t px = vaddq_f64(vx0, vmulq_f64(iv, vdx));
    const float64x2_t py = vaddq_f64(vy0, vmulq_f64(iv, vdy));
    const float64x2_t fx =
        vmaxq_f64(kZero, vminq_f64(vsubq_f64(px, kHalf), fxmax));
    const float64x2_t fy =
        vmaxq_f64(kZero, vminq_f64(vsubq_f64(py, kHalf), fymax));
    // fx/fy are clamped to [0, max]: truncation equals generic's int cast.
    const int64x2_t xi = vcvtq_s64_f64(fx);
    const int64x2_t yi = vcvtq_s64_f64(fy);
    const float64x2_t tx = vsubq_f64(fx, vcvtq_f64_s64(xi));
    const float64x2_t ty = vsubq_f64(fy, vcvtq_f64_s64(yi));
    const int x0a = static_cast<int>(vgetq_lane_s64(xi, 0));
    const int x0b = static_cast<int>(vgetq_lane_s64(xi, 1));
    const int y0a = static_cast<int>(vgetq_lane_s64(yi, 0));
    const int y0b = static_cast<int>(vgetq_lane_s64(yi, 1));
    const int x1a = x0a + 1 < w ? x0a + 1 : w - 1;
    const int x1b = x0b + 1 < w ? x0b + 1 : w - 1;
    const int y1a = y0a + 1 < h ? y0a + 1 : h - 1;
    const int y1b = y0b + 1 < h ? y0b + 1 : h - 1;
    const double* r0a = grid + static_cast<std::size_t>(y0a) * w;
    const double* r0b = grid + static_cast<std::size_t>(y0b) * w;
    const double* r1a = grid + static_cast<std::size_t>(y1a) * w;
    const double* r1b = grid + static_cast<std::size_t>(y1b) * w;
    const float64x2_t g00 = {r0a[x0a], r0b[x0b]};
    const float64x2_t g01 = {r0a[x1a], r0b[x1b]};
    const float64x2_t g10 = {r1a[x0a], r1b[x0b]};
    const float64x2_t g11 = {r1a[x1a], r1b[x1b]};
    const float64x2_t one_tx = vsubq_f64(kOne, tx);
    const float64x2_t bottom =
        vaddq_f64(vmulq_f64(g00, one_tx), vmulq_f64(g01, tx));
    const float64x2_t top =
        vaddq_f64(vmulq_f64(g10, one_tx), vmulq_f64(g11, tx));
    vst1q_f64(out + i,
              vaddq_f64(vmulq_f64(bottom, vsubq_f64(kOne, ty)),
                        vmulq_f64(top, ty)));
  }
  for (; i < count; ++i)
    out[i] = bilinear_one(grid, h, w, x0 + i * dx, y0 + i * dy);
}

}  // namespace

namespace detail {

const KernelTable& neon_table() {
  static const KernelTable t = {
      Backend::kNeon,
      "neon",
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
      &bilinear_line_f64,
  };
  return t;
}

}  // namespace detail
}  // namespace ldmo::kernels

#endif  // LDMO_KERNELS_NEON

// AVX-512 kernel backend (512-bit: 8 doubles / 16 floats / 4 complex<double>).
//
// This file holds only the 512-bit vector primitives; the ops, the vector
// exp and sincos and the table fill are written once in x86_ops.h.
// Compiled with -mavx512f -mavx512dq -ffp-contract=off in its own
// translation unit. Requires AVX512F (core ops) + AVX512DQ (512-bit FP
// logical ops) at runtime. Partial vectors use AVX-512 write-masks, and
// AVX-512 has no vaddsubpd, so addsub is a masked subtract on the even
// (real) lanes — the same add/sub per lane, differently encoded.
#include "kernels/kernels.h"

#ifdef LDMO_KERNELS_AVX512

#include <immintrin.h>

#include <cstddef>

namespace ldmo::kernels {
namespace {

struct VecD { __m512d v; };
struct VecF { __m512 v; };
struct MaskD { __mmask8 m; };
struct VecI64 { __m512i v; };
struct VecI32 { __m256i v; };  // one int32 per double lane

constexpr std::size_t kDoubles = 8;
constexpr int kFloats = 16;
constexpr bool kDotTailInLanes = true;

// ---- memory ----
inline VecD load(const double* p) { return {_mm512_loadu_pd(p)}; }
inline VecF load(const float* p) { return {_mm512_loadu_ps(p)}; }
inline void store(double* p, VecD a) { _mm512_storeu_pd(p, a.v); }
inline void store(float* p, VecF a) { _mm512_storeu_ps(p, a.v); }
inline __mmask8 first_lanes8(std::size_t n) {
  return static_cast<__mmask8>((1u << n) - 1u);
}
inline __mmask16 first_lanes16(int n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}
inline VecD load_n(const double* p, std::size_t n) {
  return {_mm512_maskz_loadu_pd(first_lanes8(n), p)};
}
inline VecF load_n(const float* p, int n) {
  return {_mm512_maskz_loadu_ps(first_lanes16(n), p)};
}
inline void store_n(double* p, std::size_t n, VecD a) {
  _mm512_mask_storeu_pd(p, first_lanes8(n), a.v);
}
inline void store_n(float* p, int n, VecF a) {
  _mm512_mask_storeu_ps(p, first_lanes16(n), a.v);
}

// ---- lane-wise arithmetic ----
inline VecD splat(double x) { return {_mm512_set1_pd(x)}; }
inline VecF splat(float x) { return {_mm512_set1_ps(x)}; }
inline VecD ramp(int i) {
  return {_mm512_set_pd(i + 7, i + 6, i + 5, i + 4, i + 3, i + 2, i + 1, i)};
}
inline VecD operator+(VecD a, VecD b) { return {_mm512_add_pd(a.v, b.v)}; }
inline VecD operator-(VecD a, VecD b) { return {_mm512_sub_pd(a.v, b.v)}; }
inline VecD operator*(VecD a, VecD b) { return {_mm512_mul_pd(a.v, b.v)}; }
inline VecD operator/(VecD a, VecD b) { return {_mm512_div_pd(a.v, b.v)}; }
inline VecD operator|(VecD a, VecD b) { return {_mm512_or_pd(a.v, b.v)}; }
inline VecD operator^(VecD a, VecD b) { return {_mm512_xor_pd(a.v, b.v)}; }
inline VecF operator+(VecF a, VecF b) { return {_mm512_add_ps(a.v, b.v)}; }
inline VecF operator*(VecF a, VecF b) { return {_mm512_mul_ps(a.v, b.v)}; }
inline VecD min(VecD a, VecD b) { return {_mm512_min_pd(a.v, b.v)}; }
inline VecD max(VecD a, VecD b) { return {_mm512_max_pd(a.v, b.v)}; }
inline VecD abs(VecD a) { return {_mm512_abs_pd(a.v)}; }

// ---- compare and blend ----
inline MaskD operator<(VecD a, VecD b) {
  return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ)};
}
inline MaskD operator>(VecD a, VecD b) {
  return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ)};
}
inline MaskD operator>=(VecD a, VecD b) {
  return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_GE_OQ)};
}
inline VecD select(MaskD m, VecD if_true, VecD if_false) {
  return {_mm512_mask_blend_pd(m.m, if_false.v, if_true.v)};
}

// ---- horizontal reductions: serial lane sums from zero, tree max ----
inline double hsum(VecD a) {
  alignas(64) double l[8];
  _mm512_store_pd(l, a.v);
  double sum = 0.0;
  for (double x : l) sum += x;
  return sum;
}
inline double hmax(VecD a) { return _mm512_reduce_max_pd(a.v); }
inline float hsum(VecF a) {
  alignas(64) float l[16];
  _mm512_store_ps(l, a.v);
  float sum = 0.0f;
  for (float x : l) sum += x;
  return sum;
}

// ---- exp / sincos range-reduction helpers ----
inline VecD round_nearest(VecD a) {
  return {_mm512_roundscale_pd(a.v,
                               _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
}
inline VecI64 round_to_i64(VecD integral) {
  return {_mm512_cvtepi32_epi64(_mm512_cvtpd_epi32(integral.v))};
}
inline VecI64 operator+(VecI64 a, long long b) {
  return {_mm512_add_epi64(a.v, _mm512_set1_epi64(b))};
}
inline VecD exp2i(VecI64 n) {  // 2^n through the exponent field
  return {_mm512_castsi512_pd(_mm512_slli_epi64((n + 1023).v, 52))};
}
inline MaskD is_odd(VecI64 q) {
  return {_mm512_test_epi64_mask(q.v, _mm512_set1_epi64(1))};
}
inline VecD bit1_to_sign(VecI64 q) {  // bit 1 of q moved to the sign bit
  return {_mm512_castsi512_pd(
      _mm512_slli_epi64(_mm512_and_epi64(q.v, _mm512_set1_epi64(2)), 62))};
}

// ---- complex shuffles on [re0, im0, re1, im1, ...] ----
inline VecD dup_re(VecD a) { return {_mm512_movedup_pd(a.v)}; }
inline VecD dup_im(VecD a) { return {_mm512_permute_pd(a.v, 0xFF)}; }
inline VecD swap_re_im(VecD a) { return {_mm512_permute_pd(a.v, 0x55)}; }
inline VecD addsub(VecD a, VecD b) {
  return {_mm512_mask_sub_pd(_mm512_add_pd(a.v, b.v), 0x55, a.v, b.v)};
}
inline VecD conj(VecD a) {
  return {_mm512_xor_pd(a.v, _mm512_set_pd(-0.0, 0.0, -0.0, 0.0,  //
                                           -0.0, 0.0, -0.0, 0.0))};
}
// lo = [a0 b0 a1 b1 a2 b2 a3 b3], hi = the same for lanes 4..7.
inline void interleave(VecD a, VecD b, VecD* lo, VecD* hi) {
  lo->v = _mm512_permutex2var_pd(
      a.v, _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11), b.v);
  hi->v = _mm512_permutex2var_pd(
      a.v, _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15), b.v);
}
// [a0 a2 a4 a6 b0 b2 b4 b6]: the real parts of two packed complex vectors.
inline VecD even_lanes(VecD a, VecD b) {
  return {_mm512_permutex2var_pd(
      a.v, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), b.v)};
}

// ---- int32 index lanes ----
inline VecI32 splat_i32(int x) { return {_mm256_set1_epi32(x)}; }
inline VecI32 trunc_i32(VecD a) { return {_mm512_cvttpd_epi32(a.v)}; }
inline VecD to_f64(VecI32 a) { return {_mm512_cvtepi32_pd(a.v)}; }
inline VecI32 operator+(VecI32 a, VecI32 b) {
  return {_mm256_add_epi32(a.v, b.v)};
}
inline VecI32 operator*(VecI32 a, VecI32 b) {
  return {_mm256_mullo_epi32(a.v, b.v)};
}
inline VecI32 min(VecI32 a, VecI32 b) {
  return {_mm256_min_epi32(a.v, b.v)};
}
inline VecD gather(const double* base, VecI32 index) {
  return {_mm512_i32gather_pd(index.v, base, 8)};
}

}  // namespace
}  // namespace ldmo::kernels

#include "kernels/x86_ops.h"

namespace ldmo::kernels::detail {

const KernelTable& avx512_table() {
  static const KernelTable t = x86_table(Backend::kAvx512, "avx512");
  return t;
}

}  // namespace ldmo::kernels::detail

#endif  // LDMO_KERNELS_AVX512

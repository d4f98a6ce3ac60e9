// AVX2 kernel backend (256-bit: 4 doubles / 8 floats / 2 complex<double>).
//
// This file holds only the 256-bit vector primitives; the ops, the vector
// exp and sincos and the table fill are written once in x86_ops.h.
// Compiled with -mavx2 -ffp-contract=off in its own translation unit; the
// rest of the binary never needs AVX2, so the table is only registered when
// the running CPU reports the feature.
#include "kernels/kernels.h"

#ifdef LDMO_KERNELS_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

namespace ldmo::kernels {
namespace {

struct VecD { __m256d v; };
struct VecF { __m256 v; };
struct MaskD { __m256d m; };   // all-ones lanes where true
struct VecI64 { __m256i v; };
struct VecI32 { __m128i v; };  // one int32 per double lane

constexpr std::size_t kDoubles = 4;
constexpr int kFloats = 8;
constexpr bool kDotTailInLanes = false;

// ---- memory ----
inline VecD load(const double* p) { return {_mm256_loadu_pd(p)}; }
inline VecF load(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void store(double* p, VecD a) { _mm256_storeu_pd(p, a.v); }
inline void store(float* p, VecF a) { _mm256_storeu_ps(p, a.v); }
inline __m256i first_lanes64(std::size_t n) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}
inline __m256i first_lanes32(int n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
inline VecD load_n(const double* p, std::size_t n) {
  return {_mm256_maskload_pd(p, first_lanes64(n))};
}
inline VecF load_n(const float* p, int n) {
  return {_mm256_maskload_ps(p, first_lanes32(n))};
}
inline void store_n(double* p, std::size_t n, VecD a) {
  _mm256_maskstore_pd(p, first_lanes64(n), a.v);
}
inline void store_n(float* p, int n, VecF a) {
  _mm256_maskstore_ps(p, first_lanes32(n), a.v);
}

// ---- lane-wise arithmetic ----
inline VecD splat(double x) { return {_mm256_set1_pd(x)}; }
inline VecF splat(float x) { return {_mm256_set1_ps(x)}; }
inline VecD ramp(int i) { return {_mm256_set_pd(i + 3, i + 2, i + 1, i)}; }
inline VecD operator+(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
inline VecD operator-(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline VecD operator*(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline VecD operator/(VecD a, VecD b) { return {_mm256_div_pd(a.v, b.v)}; }
inline VecD operator|(VecD a, VecD b) { return {_mm256_or_pd(a.v, b.v)}; }
inline VecD operator^(VecD a, VecD b) { return {_mm256_xor_pd(a.v, b.v)}; }
inline VecF operator+(VecF a, VecF b) { return {_mm256_add_ps(a.v, b.v)}; }
inline VecF operator*(VecF a, VecF b) { return {_mm256_mul_ps(a.v, b.v)}; }
inline VecD min(VecD a, VecD b) { return {_mm256_min_pd(a.v, b.v)}; }
inline VecD max(VecD a, VecD b) { return {_mm256_max_pd(a.v, b.v)}; }
inline VecD abs(VecD a) {
  return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
}

// ---- compare and blend ----
inline MaskD operator<(VecD a, VecD b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}
inline MaskD operator>(VecD a, VecD b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
}
inline MaskD operator>=(VecD a, VecD b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
}
inline VecD select(MaskD m, VecD if_true, VecD if_false) {
  return {_mm256_blendv_pd(if_false.v, if_true.v, m.m)};
}

// ---- horizontal reductions: pairwise tree over the 4 / 8 lanes ----
inline double hsum(VecD a) {
  alignas(32) double l[4];
  _mm256_store_pd(l, a.v);
  return (l[0] + l[1]) + (l[2] + l[3]);
}
inline double hmax(VecD a) {
  alignas(32) double l[4];
  _mm256_store_pd(l, a.v);
  return std::max(std::max(l[0], l[1]), std::max(l[2], l[3]));
}
inline float hsum(VecF a) {
  alignas(32) float l[8];
  _mm256_store_ps(l, a.v);
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

// ---- exp / sincos range-reduction helpers ----
inline VecD round_nearest(VecD a) {
  return {_mm256_round_pd(a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
}
inline VecI64 round_to_i64(VecD integral) {
  return {_mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(integral.v))};
}
inline VecI64 operator+(VecI64 a, long long b) {
  return {_mm256_add_epi64(a.v, _mm256_set1_epi64x(b))};
}
inline VecD exp2i(VecI64 n) {  // 2^n through the exponent field
  return {_mm256_castsi256_pd(_mm256_slli_epi64((n + 1023).v, 52))};
}
inline MaskD is_odd(VecI64 q) {
  const __m256i one = _mm256_set1_epi64x(1);
  return {_mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(q.v, one), one))};
}
inline VecD bit1_to_sign(VecI64 q) {  // bit 1 of q moved to the sign bit
  return {_mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_and_si256(q.v, _mm256_set1_epi64x(2)), 62))};
}

// ---- complex shuffles on [re0, im0, re1, im1] ----
inline VecD dup_re(VecD a) { return {_mm256_movedup_pd(a.v)}; }
inline VecD dup_im(VecD a) { return {_mm256_permute_pd(a.v, 0xF)}; }
inline VecD swap_re_im(VecD a) { return {_mm256_permute_pd(a.v, 0x5)}; }
inline VecD addsub(VecD a, VecD b) { return {_mm256_addsub_pd(a.v, b.v)}; }
inline VecD conj(VecD a) {
  return {_mm256_xor_pd(a.v, _mm256_set_pd(-0.0, 0.0, -0.0, 0.0))};
}
// lo = [a0 b0 a1 b1], hi = [a2 b2 a3 b3].
inline void interleave(VecD a, VecD b, VecD* lo, VecD* hi) {
  const __m256d l = _mm256_unpacklo_pd(a.v, b.v);  // [a0 b0 a2 b2]
  const __m256d h = _mm256_unpackhi_pd(a.v, b.v);  // [a1 b1 a3 b3]
  lo->v = _mm256_permute2f128_pd(l, h, 0x20);
  hi->v = _mm256_permute2f128_pd(l, h, 0x31);
}
// [a0 a2 b0 b2]: the real parts of two packed complex vectors.
inline VecD even_lanes(VecD a, VecD b) {
  return {_mm256_permute4x64_pd(_mm256_unpacklo_pd(a.v, b.v),
                                _MM_SHUFFLE(3, 1, 2, 0))};
}

// ---- int32 index lanes ----
inline VecI32 splat_i32(int x) { return {_mm_set1_epi32(x)}; }
inline VecI32 trunc_i32(VecD a) { return {_mm256_cvttpd_epi32(a.v)}; }
inline VecD to_f64(VecI32 a) { return {_mm256_cvtepi32_pd(a.v)}; }
inline VecI32 operator+(VecI32 a, VecI32 b) {
  return {_mm_add_epi32(a.v, b.v)};
}
inline VecI32 operator*(VecI32 a, VecI32 b) {
  return {_mm_mullo_epi32(a.v, b.v)};
}
inline VecI32 min(VecI32 a, VecI32 b) { return {_mm_min_epi32(a.v, b.v)}; }
inline VecD gather(const double* base, VecI32 index) {
  return {_mm256_i32gather_pd(base, index.v, 8)};
}

}  // namespace
}  // namespace ldmo::kernels

#include "kernels/x86_ops.h"

namespace ldmo::kernels::detail {

const KernelTable& avx2_table() {
  static const KernelTable t = x86_table(Backend::kAvx2, "avx2");
  return t;
}

}  // namespace ldmo::kernels::detail

#endif  // LDMO_KERNELS_AVX2

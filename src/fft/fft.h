// Radix-2 fast Fourier transforms (1-D and 2-D).
//
// Hopkins imaging evaluates K convolutions of each mask with the SOCS
// kernels per lithography forward pass, and the ILT gradient needs as many
// again with flipped kernels; all of them run through this module as
// frequency-domain products. Plans precompute bit-reversal tables and
// twiddle factors once per size, since the same 2-D shape is transformed
// thousands of times per ILT run.
//
// Band-limited transforms: every SOCS kernel spectrum is zero outside a
// small box of low frequencies, so the 2-D transforms take an optional
// band b. The band keeps the bins (v, u) whose wrapped frequencies satisfy
// |v| <= b and |u| <= b, i.e. rows and columns [0, b] and [N - b, N). Rows
// are transformed before columns in both directions, so an inverse skips
// the row FFTs of rows that are zero, and a forward skips the column FFTs
// of columns nobody reads; the bins the band keeps come out bit-identical
// to the full transform. A band that covers a dimension (2b + 1 >= N)
// transforms it in full; kFullBand, the default, is a full transform.
#pragma once

#include <complex>
#include <limits>
#include <vector>

#include "common/grid.h"

namespace ldmo::fft {

using Complex = std::complex<double>;
using GridC = Grid<Complex>;

/// Returns the smallest power of two >= n (n >= 1).
int next_pow2(int n);

/// True if n is a power of two (n >= 1).
bool is_pow2(int n);

/// Band argument of a full 2-D transform (every bin in band).
inline constexpr int kFullBand = std::numeric_limits<int>::max();

/// Precomputed plan for 1-D transforms of a fixed power-of-two size.
class FftPlan {
 public:
  explicit FftPlan(int size);

  int size() const { return size_; }

  /// In-place forward DFT (engineering sign convention, no scaling).
  void forward(Complex* data) const;

  /// In-place inverse DFT including the 1/N scaling.
  void inverse(Complex* data) const;

 private:
  void transform(Complex* data, bool inverse) const;

  int size_;
  int log2_size_;
  std::vector<int> bit_reverse_;
  // Stage-major twiddles: the stage with butterfly span `len` owns the
  // len/2 contiguous entries starting at offset len/2 - 1, so each
  // butterfly pass reads its table sequentially (SIMD-friendly) instead of
  // striding through one size/2 table. Values are gathered from the same
  // cos/sin evaluations as the classic layout — bit-identical butterflies.
  std::vector<Complex> stage_twiddle_forward_;
  std::vector<Complex> stage_twiddle_inverse_;
};

/// Precomputed plan for 2-D transforms of a fixed power-of-two shape.
/// Plans are immutable after construction and safe to share across threads
/// (per-call scratch comes from the calling thread's Workspace).
class Fft2DPlan {
 public:
  Fft2DPlan(int height, int width);

  int height() const { return height_; }
  int width() const { return width_; }

  /// In-place 2-D forward DFT of a row-major grid. With a band, only the
  /// in-band bins are specified afterwards (the column FFTs outside the
  /// band are skipped); every other bin holds unspecified values.
  void forward(GridC& grid, int band = kFullBand) const;

  /// In-place 2-D inverse DFT (scaled by 1/(H*W)). With a band, the input
  /// must be zero on every bin outside it (the row FFTs of out-of-band
  /// rows are skipped); the whole output is specified.
  void inverse(GridC& grid, int band = kFullBand) const;

  /// Raw-pointer variants over row-major height()*width() storage — used
  /// by callers that transform slices of one flat pooled buffer.
  void forward(Complex* data, int band = kFullBand) const;
  void inverse(Complex* data, int band = kFullBand) const;

  /// 2-D forward DFT of a REAL grid (masks, resist targets): packs row
  /// pairs as re+i*im so each row FFT transforms two rows at once, then
  /// transforms only columns [0, min(b, W/2)] and reconstructs their
  /// mirrors from the Hermitian symmetry F(v, W-u) = conj(F((H-v) mod H, u))
  /// — just under half the butterfly work of forward(to_complex(src)) at
  /// full band. As with forward(), only in-band bins are specified under
  /// a band. The spectrum is mathematically identical to the complex
  /// forward; rounding differs at the ~1 ulp level because the pack/unpack
  /// reassociates row-transform arithmetic.
  void forward_real(const GridF& src, GridC& out, int band = kFullBand) const;
  void forward_real(const double* src, Complex* out,
                    int band = kFullBand) const;

 private:
  /// Row FFTs of the rows a band keeps (every row at kFullBand).
  void transform_rows(Complex* data, bool inverse, int band) const;
  /// Column FFTs restricted to columns [x_begin, x_end).
  void transform_cols(Complex* data, int x_begin, int x_end,
                      bool inverse) const;

  int height_;
  int width_;
  FftPlan row_plan_;
  FftPlan col_plan_;
};

/// Process-wide plan cache: one immutable Fft2DPlan per (height, width),
/// built on first use. The returned reference lives for the process
/// lifetime, so long-lived sessions (FlowEngine) and short-lived
/// simulators share the same tables.
const Fft2DPlan& plan_for(int height, int width);

/// Copies a real grid into a complex grid of the same shape.
GridC to_complex(const GridF& real);

/// Out-param variant: reshapes `out` if needed and fully overwrites it
/// (allocation-free when the shape already matches).
void to_complex(const GridF& real, GridC& out);

/// Extracts the real part.
GridF real_part(const GridC& grid);

/// Out-param variant of real_part (same reuse contract as to_complex).
void real_part(const GridC& grid, GridF& out);

/// Pointwise product: a *= b. Shapes must match.
void multiply_inplace(GridC& a, const GridC& b);

/// Pointwise product with the conjugate of b: a *= conj(b).
void multiply_conj_inplace(GridC& a, const GridC& b);

}  // namespace ldmo::fft

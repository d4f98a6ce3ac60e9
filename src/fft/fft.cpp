#include "fft/fft.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/error.h"
#include "kernels/kernels.h"
#include "runtime/workspace.h"

namespace ldmo::fft {

int next_pow2(int n) {
  require(n >= 1, "next_pow2: n must be >= 1");
  int p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(int n) { return n >= 1 && (n & (n - 1)) == 0; }

FftPlan::FftPlan(int size) : size_(size) {
  require(is_pow2(size), "FftPlan: size must be a power of two");
  log2_size_ = 0;
  while ((1 << log2_size_) < size_) ++log2_size_;

  bit_reverse_.resize(static_cast<std::size_t>(size_));
  for (int i = 0; i < size_; ++i) {
    int rev = 0;
    for (int b = 0; b < log2_size_; ++b)
      if (i & (1 << b)) rev |= 1 << (log2_size_ - 1 - b);
    bit_reverse_[static_cast<std::size_t>(i)] = rev;
  }

  // Classic half-size twiddle table, then regrouped stage-major: the stage
  // with span `len` reads entries k*stride (stride = size/len) — copying
  // them out contiguously keeps the butterfly values bit-identical while
  // letting each pass stream its table.
  std::vector<Complex> forward_tw(static_cast<std::size_t>(size_ / 2));
  std::vector<Complex> inverse_tw(static_cast<std::size_t>(size_ / 2));
  for (int k = 0; k < size_ / 2; ++k) {
    const double angle = -2.0 * M_PI * k / size_;
    forward_tw[static_cast<std::size_t>(k)] =
        Complex(std::cos(angle), std::sin(angle));
    inverse_tw[static_cast<std::size_t>(k)] =
        Complex(std::cos(angle), -std::sin(angle));
  }
  // Stage offsets: span len owns len/2 entries at offset len/2 - 1
  // (1 + 2 + ... + len/4 = len/2 - 1), size-1 entries total.
  stage_twiddle_forward_.resize(size_ > 1 ? static_cast<std::size_t>(size_ - 1)
                                          : 0);
  stage_twiddle_inverse_.resize(stage_twiddle_forward_.size());
  for (int len = 2; len <= size_; len <<= 1) {
    const int half = len >> 1;
    const int stride = size_ / len;
    for (int k = 0; k < half; ++k) {
      const std::size_t dst = static_cast<std::size_t>(half - 1 + k);
      const std::size_t src = static_cast<std::size_t>(k * stride);
      stage_twiddle_forward_[dst] = forward_tw[src];
      stage_twiddle_inverse_[dst] = inverse_tw[src];
    }
  }
}

void FftPlan::transform(Complex* data, bool inverse) const {
  // Bit-reversal permutation.
  for (int i = 0; i < size_; ++i) {
    const int j = bit_reverse_[static_cast<std::size_t>(i)];
    if (i < j) std::swap(data[i], data[j]);
  }
  const auto& twiddle =
      inverse ? stage_twiddle_inverse_ : stage_twiddle_forward_;
  // Iterative Cooley-Tukey: one dispatched butterfly pass per stage.
  const kernels::KernelTable& kt = kernels::table();
  for (int len = 2; len <= size_; len <<= 1) {
    const int half = len >> 1;
    kt.fft_pass_f64(data, twiddle.data() + (half - 1), size_, len);
  }
}

void FftPlan::forward(Complex* data) const { transform(data, false); }

void FftPlan::inverse(Complex* data) const {
  transform(data, true);
  kernels::table().scale_complex_f64(data, 1.0 / size_,
                                     static_cast<std::size_t>(size_));
}

namespace {

// The index runs [0, lo_end) and [hi_begin, n) that a band keeps in an
// n-point dimension: [0, b] and [n - b, n), or all of [0, n) when the band
// covers the dimension (2b + 1 >= n).
struct BandRuns {
  int lo_end;
  int hi_begin;
};

BandRuns band_runs(int n, int band) {
  require(band >= 0, "Fft2DPlan: band must be >= 0");
  if (band >= n / 2) return {n, n};
  return {band + 1, n - band};
}

}  // namespace

Fft2DPlan::Fft2DPlan(int height, int width)
    : height_(height), width_(width), row_plan_(width), col_plan_(height) {}

void Fft2DPlan::transform_rows(Complex* data, bool inverse, int band) const {
  const BandRuns rows = band_runs(height_, band);
  auto transform = [&](int y) {
    Complex* row = data + static_cast<std::size_t>(y) * width_;
    if (inverse)
      row_plan_.inverse(row);
    else
      row_plan_.forward(row);
  };
  for (int y = 0; y < rows.lo_end; ++y) transform(y);
  for (int y = rows.hi_begin; y < height_; ++y) transform(y);
}

void Fft2DPlan::transform_cols(Complex* data, int x_begin, int x_end,
                               bool inverse) const {
  // Blocked gather/scatter: kColBlock columns move through pooled scratch
  // together, so the row-major walk touches each grid cache line once per
  // block instead of once per column. The per-column butterflies are
  // unchanged, so results are bit-identical to the single-column walk.
  constexpr int kColBlock = 8;
  runtime::PooledVector<Complex> scratch =
      runtime::Workspace::this_thread().vec_c128_uninit(
          static_cast<std::size_t>(height_) * kColBlock);
  Complex* buf = scratch.data();
  for (int x0 = x_begin; x0 < x_end; x0 += kColBlock) {
    const int block = std::min(kColBlock, x_end - x0);
    for (int y = 0; y < height_; ++y) {
      const Complex* row = data + static_cast<std::size_t>(y) * width_;
      for (int b = 0; b < block; ++b)
        buf[static_cast<std::size_t>(b) * height_ + y] = row[x0 + b];
    }
    for (int b = 0; b < block; ++b) {
      Complex* column = buf + static_cast<std::size_t>(b) * height_;
      if (inverse)
        col_plan_.inverse(column);
      else
        col_plan_.forward(column);
    }
    for (int y = 0; y < height_; ++y) {
      Complex* row = data + static_cast<std::size_t>(y) * width_;
      for (int b = 0; b < block; ++b)
        row[x0 + b] = buf[static_cast<std::size_t>(b) * height_ + y];
    }
  }
}

void Fft2DPlan::forward(GridC& grid, int band) const {
  require(grid.height() == height_ && grid.width() == width_,
          "Fft2DPlan::forward: shape mismatch");
  forward(grid.data(), band);
}

void Fft2DPlan::inverse(GridC& grid, int band) const {
  require(grid.height() == height_ && grid.width() == width_,
          "Fft2DPlan::inverse: shape mismatch");
  inverse(grid.data(), band);
}

void Fft2DPlan::forward(Complex* data, int band) const {
  // Every row, then only the in-band columns: a column FFT reads nothing
  // but its own column, so the kept columns are exact.
  transform_rows(data, false, kFullBand);
  const BandRuns cols = band_runs(width_, band);
  transform_cols(data, 0, cols.lo_end, false);
  transform_cols(data, cols.hi_begin, width_, false);
}

void Fft2DPlan::inverse(Complex* data, int band) const {
  // Out-of-band rows are zero and would transform to zero, so only the
  // in-band rows run before the full column pass.
  transform_rows(data, true, band);
  transform_cols(data, 0, width_, true);
}

void Fft2DPlan::forward_real(const GridF& src, GridC& out, int band) const {
  require(src.height() == height_ && src.width() == width_,
          "Fft2DPlan::forward_real: shape mismatch");
  out.resize(height_, width_);
  forward_real(src.data(), out.data(), band);
}

void Fft2DPlan::forward_real(const double* src, Complex* out,
                             int band) const {
  const std::size_t cells =
      static_cast<std::size_t>(height_) * static_cast<std::size_t>(width_);
  if (height_ < 2) {
    // Degenerate single-row grid: no pairing possible.
    for (std::size_t i = 0; i < cells; ++i) out[i] = Complex(src[i], 0.0);
    forward(out, band);
    return;
  }
  // Row stage: pack rows (y, y+1) as re + i*im, one FFT per pair, then
  // split with A(u) = (Z(u) + conj(Z(W-u)))/2, B(u) = (Z(u) - conj(Z(W-u)))/2i.
  const int w = width_;
  const int half_w = w / 2;
  for (int y = 0; y < height_; y += 2) {
    const double* r0 = src + static_cast<std::size_t>(y) * w;
    const double* r1 = r0 + w;
    Complex* a = out + static_cast<std::size_t>(y) * w;
    Complex* b = a + w;
    for (int x = 0; x < w; ++x) a[x] = Complex(r0[x], r1[x]);
    row_plan_.forward(a);
    // Self-conjugate bins (u = 0 and u = W/2) split without a partner.
    const Complex z0 = a[0];
    a[0] = Complex(z0.real(), 0.0);
    b[0] = Complex(z0.imag(), 0.0);
    if (w >= 2) {
      const Complex zh = a[half_w];
      a[half_w] = Complex(zh.real(), 0.0);
      b[half_w] = Complex(zh.imag(), 0.0);
    }
    for (int u = 1; u < half_w; ++u) {
      const int v = w - u;
      const Complex zu = a[u];
      const Complex zv = a[v];
      a[u] = Complex(0.5 * (zu.real() + zv.real()),
                     0.5 * (zu.imag() - zv.imag()));
      b[u] = Complex(0.5 * (zu.imag() + zv.imag()),
                     0.5 * (zv.real() - zu.real()));
      a[v] = Complex(0.5 * (zv.real() + zu.real()),
                     0.5 * (zv.imag() - zu.imag()));
      b[v] = Complex(0.5 * (zv.imag() + zu.imag()),
                     0.5 * (zu.real() - zv.real()));
    }
  }
  // Column stage: every row above is the spectrum of a real row, so
  // column W-u is the conjugate mirror of column u. Transform only
  // [0, last] (last = W/2 at full band) and reconstruct the mirrored
  // columns via F(v, W-u) = conj(F((H-v) mod H, u)).
  const int last = std::min(band_runs(w, band).lo_end - 1, half_w);
  transform_cols(out, 0, last + 1, false);
  for (int u = 1; u <= std::min(last, half_w - 1); ++u) {
    const int uc = w - u;
    out[uc] = std::conj(out[u]);
    for (int v = 1; v < height_; ++v)
      out[static_cast<std::size_t>(v) * w + uc] = std::conj(
          out[static_cast<std::size_t>(height_ - v) * w + u]);
  }
}

const Fft2DPlan& plan_for(int height, int width) {
  static std::mutex mu;
  static std::map<std::pair<int, int>, std::unique_ptr<Fft2DPlan>>* cache =
      new std::map<std::pair<int, int>, std::unique_ptr<Fft2DPlan>>();
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<Fft2DPlan>& slot = (*cache)[{height, width}];
  if (!slot) slot = std::make_unique<Fft2DPlan>(height, width);
  return *slot;
}

GridC to_complex(const GridF& real) {
  GridC out;
  to_complex(real, out);
  return out;
}

void to_complex(const GridF& real, GridC& out) {
  out.resize(real.height(), real.width());
  for (std::size_t i = 0; i < real.size(); ++i) out[i] = Complex(real[i], 0.0);
}

GridF real_part(const GridC& grid) {
  GridF out;
  real_part(grid, out);
  return out;
}

void real_part(const GridC& grid, GridF& out) {
  out.resize(grid.height(), grid.width());
  for (std::size_t i = 0; i < grid.size(); ++i) out[i] = grid[i].real();
}

void multiply_inplace(GridC& a, const GridC& b) {
  require(a.same_shape(b), "multiply_inplace: shape mismatch");
  kernels::table().cmul_f64(a.data(), b.data(), a.size());
}

void multiply_conj_inplace(GridC& a, const GridC& b) {
  require(a.same_shape(b), "multiply_conj_inplace: shape mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] *= std::conj(b[i]);
}

}  // namespace ldmo::fft

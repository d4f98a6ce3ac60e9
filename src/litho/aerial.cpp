#include "litho/aerial.h"

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "kernels/kernels.h"
#include "runtime/parallel_for.h"
#include "runtime/workspace.h"

namespace ldmo::litho {
namespace {

using runtime::Workspace;

// Calls fn(offset, length) for each contiguous run of the band box of an
// n x n row-major spectrum — every band row's columns [0, band] and
// [n - band, n) — or once for the whole grid when the band covers it.
template <typename Fn>
void for_each_band_run(int n, int band, Fn&& fn) {
  const std::size_t pixels =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  if (band >= n / 2) {
    fn(std::size_t{0}, pixels);
    return;
  }
  auto row = [&](int y) {
    const std::size_t base = static_cast<std::size_t>(y) * n;
    fn(base, static_cast<std::size_t>(band) + 1);
    if (band > 0)
      fn(base + static_cast<std::size_t>(n - band),
         static_cast<std::size_t>(band));
  };
  for (int y = 0; y <= band; ++y) row(y);
  for (int y = n - band; y < n; ++y) row(y);
}

// out = spectrum .* kernel on the band box and zero elsewhere, ready for
// a band inverse. Out-of-band spectrum bins (unspecified after a band
// forward) are never read, not even to multiply by a zero kernel bin.
void band_product(int n, int band, const fft::Complex* spectrum,
                  const fft::Complex* kernel, fft::Complex* out) {
  const kernels::KernelTable& kt = kernels::table();
  if (band < n / 2)
    std::fill(out, out + static_cast<std::size_t>(n) * n, fft::Complex{});
  for_each_band_run(n, band, [&](std::size_t offset, std::size_t length) {
    kt.cmul_to_f64(spectrum + offset, kernel + offset, out + offset, length);
  });
}

}  // namespace

AerialSimulator::AerialSimulator(const SocsKernels& kernels)
    : kernels_(kernels),
      plan_(fft::plan_for(kernels.config.grid_size,
                          kernels.config.grid_size)) {
  require(!kernels.kernel_ffts.empty(), "AerialSimulator: no kernels");
}

AerialFields AerialSimulator::intensity_with_fields(const GridF& mask) const {
  AerialFields out;
  intensity_with_fields(mask, out);
  return out;
}

void AerialSimulator::intensity_with_fields(const GridF& mask,
                                            AerialFields& out) const {
  const int n = grid_size();
  const int band = kernels_.band;
  require(mask.height() == n && mask.width() == n,
          "AerialSimulator: mask shape mismatch");

  // Pooled scratch; the real-input forward FFT fills every in-band bin
  // (masks are real, so the Hermitian path does half the butterflies).
  runtime::PooledGrid<fft::Complex> mask_freq =
      Workspace::this_thread().grid_c_uninit(n, n);
  plan_.forward_real(mask.data(), mask_freq->data(), band);

  const std::size_t kernel_count = kernels_.kernel_ffts.size();
  out.fields.resize(kernel_count);  // keeps warm grids across refills
  out.intensity.resize(n, n);
  out.intensity.fill(0.0);
  // Each kernel's field is an independent convolution into its own slot;
  // the intensity sum is then folded serially in kernel order so the
  // floating point accumulation matches the serial loop bit-for-bit.
  runtime::parallel_for(kernel_count, [&](std::size_t k) {
    fft::GridC& field = out.fields[k];
    field.resize(n, n);
    band_product(n, band, mask_freq->data(), kernels_.kernel_ffts[k].data(),
                 field.data());
    plan_.inverse(field, band);
  });
  const kernels::KernelTable& kt = kernels::table();
  for (std::size_t k = 0; k < kernel_count; ++k) {
    const fft::GridC& field = out.fields[k];
    kt.norm_weighted_accum_f64(out.intensity.data(), field.data(),
                               kernels_.weights[k], field.size());
  }
}

GridF AerialSimulator::intensity(const GridF& mask) const {
  GridF out;
  intensity(mask, out);
  return out;
}

void AerialSimulator::intensity(const GridF& mask, GridF& out) const {
  const int n = grid_size();
  const int band = kernels_.band;
  require(mask.height() == n && mask.width() == n,
          "AerialSimulator: mask shape mismatch");
  const std::size_t pixels =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  const std::size_t kernel_count = kernels_.kernel_ffts.size();

  Workspace& ws = Workspace::this_thread();
  runtime::PooledGrid<fft::Complex> mask_freq = ws.grid_c_uninit(n, n);
  plan_.forward_real(mask.data(), mask_freq->data(), band);

  // Per-kernel fields live as slices of one flat pooled stack instead of
  // materialized AerialFields grids; each slice is fully overwritten, and
  // the weighted-norm fold below runs serially in kernel order with the
  // exact arithmetic of the fields path (bit-identical intensities).
  const kernels::KernelTable& kt = kernels::table();
  runtime::PooledVector<fft::Complex> stack =
      ws.vec_c128_uninit(kernel_count * pixels);
  runtime::parallel_for(kernel_count, [&](std::size_t k) {
    fft::Complex* slice = stack.data() + k * pixels;
    band_product(n, band, mask_freq->data(), kernels_.kernel_ffts[k].data(),
                 slice);
    plan_.inverse(slice, band);
  });

  out.resize(n, n);
  out.fill(0.0);
  for (std::size_t k = 0; k < kernel_count; ++k) {
    const fft::Complex* slice = stack.data() + k * pixels;
    kt.norm_weighted_accum_f64(out.data(), slice, kernels_.weights[k],
                               pixels);
  }
}

GridF AerialSimulator::backpropagate(const GridF& dldi,
                                     const AerialFields& fields) const {
  GridF grad;
  backpropagate(dldi, fields, grad);
  return grad;
}

void AerialSimulator::backpropagate(const GridF& dldi,
                                    const AerialFields& fields,
                                    GridF& grad_out) const {
  const int n = grid_size();
  const int band = kernels_.band;
  require(dldi.height() == n && dldi.width() == n,
          "backpropagate: gradient shape mismatch");
  require(fields.fields.size() == kernels_.kernel_ffts.size(),
          "backpropagate: field count mismatch");
  const std::size_t pixels =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  const std::size_t kernel_count = fields.fields.size();

  // dL/dM(x') = sum_k 2 w_k Re[ sum_x G(x) E_k(x) conj(h_k(x - x')) ], i.e.
  // the correlation of G * E_k with conj(h_k(-x)), whose spectrum is
  // conj(h_hat). Accumulate sum_k w_k FFT(G * E_k) * conj(h_hat_k) in the
  // frequency domain, then one inverse FFT. conj(h_hat_k) is zero outside
  // the kernel band, so the forward FFTs only compute in-band bins, the
  // accumulation only touches the band box and the inverse skips the
  // out-of-band rows of `accum`, which stay zero.
  // Per-kernel spectra are independent slices of one pooled stack; each is
  // fully overwritten in parallel, then folded into `accum` serially in
  // kernel order (bit-identical to the serial interleaved accumulation).
  Workspace& ws = Workspace::this_thread();
  const kernels::KernelTable& kt = kernels::table();
  runtime::PooledVector<fft::Complex> spectra =
      ws.vec_c128_uninit(kernel_count * pixels);
  runtime::parallel_for(kernel_count, [&](std::size_t k) {
    const fft::GridC& field = fields.fields[k];
    fft::Complex* slice = spectra.data() + k * pixels;
    kt.real_mul_f64(dldi.data(), field.data(), slice, pixels);
    plan_.forward(slice, band);
  });
  runtime::PooledGrid<fft::Complex> accum = ws.grid_c(n, n);
  for (std::size_t k = 0; k < kernel_count; ++k) {
    const fft::Complex* slice = spectra.data() + k * pixels;
    const fft::Complex* kernel = kernels_.kernel_ffts[k].data();
    for_each_band_run(n, band, [&](std::size_t offset, std::size_t length) {
      kt.cmul_conj_accum_f64(accum->data() + offset, slice + offset,
                             kernel + offset, kernels_.weights[k], length);
    });
  }
  plan_.inverse(*accum, band);
  grad_out.resize(n, n);
  kt.scaled_real_f64(accum->data(), 2.0, grad_out.data(), pixels);
}

}  // namespace ldmo::litho

#include "litho/kernels.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "common/error.h"
#include "common/log.h"
#include "layout/raster.h"
#include "litho/aerial.h"
#include "litho/eig.h"
#include "litho/metrics.h"
#include "litho/tcc.h"

namespace ldmo::litho {
namespace {

// Raw (uncalibrated) kernels from the TCC eigendecomposition.
SocsKernels decompose(const LithoConfig& config) {
  const TccResult tcc = build_tcc(config);
  const int dim = tcc.dimension();
  const HermitianEig eig = hermitian_eigendecompose(tcc.matrix, dim);

  double trace = 0.0;
  for (double v : eig.eigenvalues) trace += std::max(v, 0.0);

  SocsKernels kernels;
  kernels.config = config;
  const int n = config.grid_size;
  kernels.band = 0;
  for (const auto& [kx, ky] : tcc.support)
    kernels.band = std::max({kernels.band, std::abs(kx), std::abs(ky)});
  const int keep = std::min(config.kernel_count, dim);
  double captured = 0.0;
  for (int k = 0; k < keep; ++k) {
    const double value = eig.eigenvalues[static_cast<std::size_t>(k)];
    if (value <= 0.0) break;  // PSD spectrum exhausted
    captured += value;
    fft::GridC freq(n, n, {0.0, 0.0});
    for (int i = 0; i < dim; ++i) {
      const auto [kx, ky] = tcc.support[static_cast<std::size_t>(i)];
      // Lattice offset -> FFT bin with wraparound.
      const int bx = (kx + n) % n;
      const int by = (ky + n) % n;
      freq.at(by, bx) =
          eig.eigenvectors[static_cast<std::size_t>(k)]
                          [static_cast<std::size_t>(i)];
    }
    kernels.kernel_ffts.push_back(std::move(freq));
    kernels.weights.push_back(value);
  }
  require(!kernels.weights.empty(), "SOCS: no positive eigenvalues");

  // Spatial L1 norms: ||h_k||_1 = sum_x |IFFT(h_hat_k)(x)|. With mask
  // values in [0,1], every field obeys |E_k(x)| <= ||h_k||_1, so each
  // kernel's worst-case intensity contribution is w_k * ||h_k||_1^2.
  const fft::Fft2DPlan& plan = fft::plan_for(n, n);
  for (const fft::GridC& freq : kernels.kernel_ffts) {
    fft::GridC spatial = freq;
    plan.inverse(spatial);
    double l1 = 0.0;
    for (std::size_t i = 0; i < spatial.size(); ++i)
      l1 += std::abs(spatial[i]);
    kernels.kernel_l1_norms.push_back(l1);
  }

  // Energy-based truncation: keep the shortest prefix reaching the
  // requested fraction of the TCC trace, and account every dropped
  // kernel's worst case into the provable pointwise intensity bound.
  if (config.kernel_keep_energy < 1.0 && trace > 0.0) {
    std::size_t keep_k = kernels.weights.size();
    double cum = 0.0;
    for (std::size_t k = 0; k < kernels.weights.size(); ++k) {
      cum += kernels.weights[k];
      if (cum / trace >= config.kernel_keep_energy) {
        keep_k = k + 1;
        break;
      }
    }
    for (std::size_t k = keep_k; k < kernels.weights.size(); ++k) {
      kernels.truncation_error_bound +=
          kernels.weights[k] * kernels.kernel_l1_norms[k] *
          kernels.kernel_l1_norms[k];
      ++kernels.dropped_kernel_count;
    }
    kernels.kernel_ffts.resize(keep_k);
    kernels.weights.resize(keep_k);
    kernels.kernel_l1_norms.resize(keep_k);
    captured = 0.0;
    for (double w : kernels.weights) captured += w;
  }
  kernels.captured_energy = trace > 0.0 ? captured / trace : 1.0;
  return kernels;
}

// Rescales weights so an isolated contact-sized square prints exactly on
// target: its aerial intensity at the edge midpoint equals the resist
// threshold. This anchors the exposure dose to the workload's feature size
// the way a contact-layer process is dosed.
void calibrate(SocsKernels& kernels) {
  const LithoConfig& cfg = kernels.config;
  const int n = cfg.grid_size;
  const double field = cfg.field_nm();
  const double size = cfg.calibration_feature_nm;

  layout::Layout probe;
  probe.clip = geometry::Rect::from_size(
      {0, 0}, static_cast<std::int64_t>(field),
      static_cast<std::int64_t>(field));
  const auto lo = static_cast<std::int64_t>((field - size) / 2.0);
  probe.add_pattern(geometry::Rect::from_size(
      {lo, lo}, static_cast<std::int64_t>(size),
      static_cast<std::int64_t>(size)));

  AerialSimulator aerial(kernels);
  const GridF intensity = aerial.intensity(layout::rasterize_target(probe, n));

  // Edge midpoint of the probe square, sampled with sub-pixel accuracy.
  const layout::RasterTransform transform{probe.clip, n};
  const double edge_x = static_cast<double>(lo) + size;  // right edge
  const double mid_y = static_cast<double>(lo) + size / 2.0;
  const double edge = sample_bilinear(intensity, transform.to_px_x(edge_x),
                                      transform.to_px_y(mid_y));
  require(edge > 1e-9, "SOCS calibration: degenerate edge intensity");
  const double scale = cfg.intensity_threshold / edge;
  for (double& w : kernels.weights) w *= scale;
  // The truncation bound is linear in the weights, so it calibrates with
  // the same dose scale into final intensity units.
  kernels.truncation_error_bound *= scale;
  kernels.calibration_scale = scale;
}

}  // namespace

SocsKernels build_socs_kernels(const LithoConfig& config) {
  config.validate();
  SocsKernels kernels = decompose(config);
  calibrate(kernels);
  log_debug("SOCS kernels built: ", kernels.kernel_count(), " kernels, ",
            kernels.captured_energy * 100.0, "% energy captured");
  return kernels;
}

const SocsKernels& cached_kernels(const LithoConfig& config) {
  // Simulators may now be constructed from pool tasks; the cache map needs
  // real locking (the returned kernels stay valid forever — entries are
  // heap-owned and never erased).
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<SocsKernels>> cache;
  const std::string key = config.kernel_cache_key();
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, std::make_unique<SocsKernels>(
                                build_socs_kernels(config)))
             .first;
  }
  return *it->second;
}

}  // namespace ldmo::litho

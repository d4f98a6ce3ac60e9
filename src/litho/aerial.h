// Aerial image computation: mask -> intensity via the SOCS expansion.
//
// The simulator shares the process-wide FFT plan for its grid size and
// draws all transient scratch (mask spectrum, per-kernel field/spectrum
// stacks) from the calling thread's Workspace, so repeated calls — every
// ILT iteration, every candidate evaluation — allocate nothing at steady
// state. The per-kernel complex fields E_k = M conv h_k can be retained
// in caller-owned AerialFields storage for the ILT gradient, which reuses
// them to avoid recomputing the forward pass.
//
// Every FFT runs at the kernels' band (SocsKernels::band): the mask
// spectrum and the adjoint's per-kernel spectra are computed only on the
// in-band bins, the spectrum products touch only the band box, and the
// inverses skip the out-of-band rows. Outputs are bit-identical to full
// transforms, since the skipped work only ever met zero kernel bins.
#pragma once

#include <vector>

#include "fft/fft.h"
#include "litho/kernels.h"

namespace ldmo::litho {

/// Forward-pass byproducts needed by the ILT gradient. Reused across
/// iterations via the out-param intensity_with_fields overload: the grids
/// keep their storage, so steady-state refills are allocation-free.
struct AerialFields {
  /// Per-kernel space-domain fields E_k = M conv h_k.
  std::vector<fft::GridC> fields;
  /// Resulting intensity I = sum_k w_k |E_k|^2.
  GridF intensity;
};

/// FFT-based Hopkins/SOCS aerial image simulator for one optical model.
class AerialSimulator {
 public:
  /// Keeps a reference to `kernels`; the caller must keep them alive
  /// (cached_kernels() returns process-lifetime storage).
  explicit AerialSimulator(const SocsKernels& kernels);

  const SocsKernels& kernels() const { return kernels_; }
  int grid_size() const { return kernels_.config.grid_size; }

  /// Intensity only (forward pass).
  GridF intensity(const GridF& mask) const;

  /// Intensity-only path into a caller buffer: per-kernel fields stream
  /// through pooled scratch and are never materialized, which skips the
  /// AerialFields copy churn when no gradient is needed. `out` is
  /// reshaped if needed and fully overwritten; results are bit-identical
  /// to intensity_with_fields(mask).intensity.
  void intensity(const GridF& mask, GridF& out) const;

  /// Intensity plus the per-kernel fields (for gradient reuse).
  AerialFields intensity_with_fields(const GridF& mask) const;

  /// Out-param variant: refills `out` in place, reusing its field grids
  /// (allocation-free once shapes are warm).
  void intensity_with_fields(const GridF& mask, AerialFields& out) const;

  /// ILT adjoint: given dL/dI and the forward fields of the same mask,
  /// returns dL/dM = sum_k 2 w_k Re[ (dLdI * conj(E_k)) conv flip(h_k) ].
  GridF backpropagate(const GridF& dldi, const AerialFields& fields) const;

  /// Out-param variant of the adjoint (same reuse contract as above).
  void backpropagate(const GridF& dldi, const AerialFields& fields,
                     GridF& grad_out) const;

 private:
  const SocsKernels& kernels_;
  const fft::Fft2DPlan& plan_;  ///< process-lifetime plan from plan_for()
};

}  // namespace ldmo::litho

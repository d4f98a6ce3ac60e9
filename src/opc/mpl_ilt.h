// Multiple-patterning ILT: the IltEngine generalized to k masks
// (triple patterning and beyond; the LELE...LE wafer image is the
// saturated sum of all exposures, so the Eq. 1-3 machinery extends
// directly). The two-mask IltEngine stays as the paper-exact path; this
// engine backs the MPL extension (DESIGN.md: the paper's own title and
// references [1, 3, 4] frame the double-patterning flow inside general
// multiple patterning).
#pragma once

#include <vector>

#include "layout/layout.h"
#include "litho/simulator.h"
#include "opc/ilt.h"

namespace ldmo::opc {

/// Resumable k-mask optimization state.
struct MplIltState {
  std::vector<GridF> p;  ///< one parameter field per mask
  int iteration = 0;
  double current_step = 0.0;
  double current_theta_m = 0.0;
  double last_loss = 0.0;
};

/// Reusable per-run scratch for the k-mask step (cf. IltScratch): per-mask
/// forward/adjoint buffers plus the combined print. optimize() threads one
/// instance through all iterations so the steady-state loop stays
/// allocation-free in the pooled paths.
struct MplIltScratch {
  std::vector<GridF> masks;                ///< Eq. 1 continuous masks
  std::vector<litho::AerialFields> fields; ///< per-mask kernel fields
  std::vector<GridF> responses;            ///< per-exposure resist responses
  std::vector<GridF> grads;                ///< per-mask parameter gradients
  GridF t;                                 ///< combined print
  GridF upstream;                          ///< dL/dT through the min() gate
  GridF response;                          ///< violation-check print
};

/// Final result of a k-mask optimization.
struct MplIltResult {
  std::vector<GridF> masks;  ///< binarized final masks
  GridF response;
  litho::PrintabilityReport report;
  std::vector<IltIterationStats> trajectory;
  int iterations_run = 0;
  bool aborted_on_violation = false;
  /// True when optimize() was cancelled through its token (no masks).
  bool cancelled = false;
};

/// k-mask gradient-descent ILT engine sharing IltConfig semantics with the
/// two-mask engine, except that it has no edge-weighted loss: the
/// constructor rejects a nonzero IltConfig::edge_weight.
class MplIltEngine {
 public:
  MplIltEngine(const litho::LithoSimulator& simulator, int mask_count,
               IltConfig config = {});

  int mask_count() const { return mask_count_; }
  const IltConfig& config() const { return config_; }

  /// P fields from a k-ary decomposition (values in [0, mask_count)).
  MplIltState init_state(const layout::Layout& layout,
                         const layout::Assignment& assignment) const;

  /// One gradient-descent iteration.
  void step(MplIltState& state, const GridF& target) const;

  /// Scratch-reusing variant (identical arithmetic; see IltEngine::step).
  void step(MplIltState& state, const GridF& target,
            MplIltScratch& scratch) const;

  /// Combined continuous-mask response of the current state.
  GridF response_of(const MplIltState& state) const;

  /// Full optimization loop (same contract as IltEngine::optimize,
  /// including per-iteration cooperative cancellation).
  MplIltResult optimize(const layout::Layout& layout,
                        const layout::Assignment& assignment,
                        bool abort_on_violation = false,
                        bool record_trajectory = false,
                        runtime::CancellationToken token = {}) const;

  /// Best-threshold binarization of a state (cf. IltEngine::finalize).
  MplIltResult finalize(const MplIltState& state,
                        const layout::Layout& layout) const;

 private:
  GridF mask_of(const GridF& p, double theta_m) const;
  void mask_of_into(const GridF& p, double theta_m, GridF& out) const;

  const litho::LithoSimulator& simulator_;
  int mask_count_;
  IltConfig config_;
};

}  // namespace ldmo::opc

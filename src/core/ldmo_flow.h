// The paper's LDMO flow (Fig. 2):
//
//   input layout
//     -> decomposition generation (MST + n-wise, Algorithm 1)
//     -> printability prediction (CNN scores every candidate)
//     -> ILT optimization of the best candidate, checking print violations
//        every 3 iterations
//     -> on violation: mark the candidate as seen, fall back to the next
//        best unseen candidate ("we mark the previous outputs and when
//        facing the same decomposition, we drop it")
//     -> optimized masks.
#pragma once

#include <vector>

#include "common/flow_error.h"
#include "common/timer.h"
#include "core/mask_init.h"
#include "core/predictor.h"
#include "mpl/decomposition_generator.h"
#include "opc/ilt.h"

namespace ldmo::core {

/// Learned warm-start knobs (ROADMAP item 2). Off by default: the
/// paper-faithful flow must stay bit-identical unless explicitly enabled.
struct WarmStartConfig {
  bool enabled = false;
  /// Iteration budget for seeded ILT runs. The acceptance target is >= 2x
  /// fewer iterations than the cold ilt.max_iterations (50), hence 25.
  int max_iterations = 25;
};

struct LdmoConfig {
  WarmStartConfig warm_start;
  mpl::GenerationConfig generation;
  opc::IltConfig ilt;
  /// Maximum violation-triggered fallbacks before the best remaining
  /// candidate is simply run to completion. Each fallback costs a partial
  /// ILT run, so the budget is small; the CNN ranking makes deep fallback
  /// chains unnecessary.
  int max_fallbacks = 2;
  /// When the predict stage throws (CNN inference failure, scoring fault),
  /// fall back to heuristic candidate ordering — the generation order of
  /// Algorithm 1, what a no-predictor baseline flow tries — instead of
  /// failing the run. Generalizes the paper's fallback-chain stance to
  /// predictor faults: a lost ranking degrades quality, never the request.
  bool degrade_on_predict_failure = true;
};

struct LdmoResult {
  layout::Assignment chosen;       ///< decomposition that produced the masks
  opc::IltResult ilt;              ///< final optimization result
  int candidates_generated = 0;
  int candidates_tried = 0;        ///< ILT attempts (1 + fallbacks)
  PhaseTimer timing;               ///< "generate" / "predict" / "ilt"
  double total_seconds = 0.0;
  /// True when the run's cancellation token fired (deadline or explicit
  /// cancel): the flow wound down early and masks/report are NOT populated.
  bool cancelled = false;
  /// True when a stage threw and the flow could not recover: masks/report
  /// are NOT populated and `error` records which stage broke and why.
  /// Failure is a per-run outcome, not an exception — callers holding many
  /// layouts (FlowEngine::run_many, the serving dispatchers) keep going.
  bool failed = false;
  FlowError error;  ///< populated iff `failed`
  /// True when the predict stage failed and the flow degraded to heuristic
  /// (generation-order) candidate ranking. The masks are real and
  /// violation-checked, just not CNN-ranked; degraded results are not
  /// admitted to the serve result cache.
  bool degraded = false;
  /// True when the winning ILT attempt started from a learned MaskNet seed
  /// (warm_start enabled, initializer present and its prediction succeeded
  /// for that candidate). Cold fallbacks leave this false even with the
  /// flag on.
  bool warm_started = false;
};

/// The flow pipeline (Fig. 2) over caller-owned components; the engine
/// already binds the simulator and the ILT hyperparameters. One-shot
/// callers pass `opc::IltEngine(simulator, config.ilt)`; core::FlowEngine
/// owns the whole stack for sessions spanning several layouts (it keeps the
/// buffer pools, kernels and FFT plans warm between runs).
///
/// `token`: cooperative cancellation with deadline support. It is polled
/// between phases and, via linked per-attempt sources, once per ILT
/// iteration inside every speculative attempt, so a fired token stops the
/// flow within one iteration of mask optimization. A cancelled run returns
/// `cancelled = true` with no masks.
///
/// Fault containment: a stage that throws is caught here and returned as
/// `failed = true` with a stage-attributed FlowError (FlowException tags
/// from deep components — litho, nn — win over the observing phase); a
/// negative `config.max_fallbacks` fails the same way, in stage kIlt. A
/// predict-stage failure degrades to heuristic ordering instead when
/// `config.degrade_on_predict_failure` is set.
///
/// `warm_start`: optional learned P-field initializer, consulted only when
/// `config.warm_start.enabled`. Seeds are computed serially (one prediction
/// per speculative attempt) before the attempts launch, so attempt results
/// stay bit-identical at any thread count; a prediction that throws
/// degrades that attempt to the paper's cold init.
LdmoResult run_ldmo_flow(const opc::IltEngine& engine,
                         PrintabilityPredictor& predictor,
                         const LdmoConfig& config,
                         const layout::Layout& layout,
                         runtime::CancellationToken token = {},
                         const MaskInitializer* warm_start = nullptr);

}  // namespace ldmo::core

#include "opc/mpl_ilt.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "layout/raster.h"
#include "litho/resist.h"
#include "runtime/parallel_for.h"
#include "runtime/workspace.h"

namespace ldmo::opc {
namespace {

double max_abs(const GridF& g) {
  double m = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i)
    m = std::max(m, std::abs(g[i]));
  return m;
}

}  // namespace

MplIltEngine::MplIltEngine(const litho::LithoSimulator& simulator,
                           int mask_count, IltConfig config)
    : simulator_(simulator), mask_count_(mask_count), config_(config) {
  require(mask_count >= 2, "MplIltEngine: need at least two masks");
  require(config_.theta_m > 0.0 && config_.max_iterations >= 1 &&
              config_.violation_check_interval >= 1 &&
              config_.step_size > 0.0 && config_.step_decay > 0.0 &&
              config_.step_decay <= 1.0 && config_.theta_m_anneal >= 1.0 &&
              !config_.binarize_thresholds.empty(),
          "MplIltEngine: invalid configuration");
  require(config_.violation_check_warmup >= 0,
          "MplIltEngine: negative check warmup");
  require(config_.edge_weight == 0.0,
          "MplIltEngine: edge_weight is not supported (IltEngine only)");
}

GridF MplIltEngine::mask_of(const GridF& p, double theta_m) const {
  GridF m;
  mask_of_into(p, theta_m, m);
  return m;
}

void MplIltEngine::mask_of_into(const GridF& p, double theta_m,
                                GridF& out) const {
  out.resize(p.height(), p.width());
  for (std::size_t i = 0; i < p.size(); ++i)
    out[i] = litho::sigmoid(theta_m * p[i]);
}

MplIltState MplIltEngine::init_state(
    const layout::Layout& layout,
    const layout::Assignment& assignment) const {
  require(static_cast<int>(assignment.size()) == layout.pattern_count(),
          "MplIltEngine::init_state: assignment size mismatch");
  for (int v : assignment)
    require(v >= 0 && v < mask_count_,
            "MplIltEngine::init_state: mask id out of range");
  simulator_.transform_for(layout);
  const int n = simulator_.grid_size();

  MplIltState state;
  state.current_step = config_.step_size;
  state.current_theta_m = config_.theta_m;
  state.p.reserve(static_cast<std::size_t>(mask_count_));
  for (int m = 0; m < mask_count_; ++m) {
    const GridF raster = layout::rasterize_mask(layout, assignment, m, n);
    GridF p(n, n);
    for (std::size_t i = 0; i < p.size(); ++i)
      p[i] = config_.initial_p * (2.0 * raster[i] - 1.0);
    state.p.push_back(std::move(p));
  }
  return state;
}

GridF MplIltEngine::response_of(const MplIltState& state) const {
  std::vector<GridF> masks;
  masks.reserve(state.p.size());
  for (const GridF& p : state.p)
    masks.push_back(mask_of(p, state.current_theta_m));
  return simulator_.print_masks(masks);
}

void MplIltEngine::step(MplIltState& state, const GridF& target) const {
  MplIltScratch scratch;
  step(state, target, scratch);
}

void MplIltEngine::step(MplIltState& state, const GridF& target,
                        MplIltScratch& s) const {
  const litho::LithoConfig& litho_cfg = simulator_.config();
  const litho::AerialSimulator& aerial = simulator_.aerial();
  const std::size_t k = static_cast<std::size_t>(mask_count_);

  // Forward pass per mask, retaining the fields for the adjoint. Masks are
  // independent simulations writing indexed scratch slots, so they run as
  // parallel tasks with results identical to the serial loop; transient
  // per-mask derivative buffers come from each worker's thread workspace.
  s.masks.resize(k);
  s.fields.resize(k);
  s.responses.resize(k);
  s.grads.resize(k);
  runtime::parallel_for(k, [&](std::size_t m) {
    mask_of_into(state.p[m], state.current_theta_m, s.masks[m]);
    aerial.intensity_with_fields(s.masks[m], s.fields[m]);
    litho::resist_response_into(s.fields[m].intensity, litho_cfg,
                                s.responses[m]);
  });
  litho::combine_exposures_n_into(s.responses, s.t);
  const GridF& t = s.t;

  double loss = 0.0;
  s.upstream.resize(t.height(), t.width());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double d = t[i] - target[i];
    loss += d * d;
    // Gradient of min(sum, 1): flows only where the sum is unsaturated.
    double total = 0.0;
    for (const GridF& r : s.responses) total += r[i];
    s.upstream[i] = total < 1.0 ? 2.0 * d : 0.0;
  }
  state.last_loss = loss;

  // Per-mask adjoint and max-normalized update (normalized jointly over
  // all masks so the relative scaling between masks is preserved). The
  // adjoints fill indexed slots in parallel; g_max folds serially in mask
  // order afterwards (max is order-independent, the fold just keeps the
  // structure uniform with the rest of the deterministic call sites).
  runtime::parallel_for(k, [&](std::size_t m) {
    runtime::Workspace& ws = runtime::Workspace::this_thread();
    runtime::PooledGrid<double> dt =
        ws.grid_f_uninit(t.height(), t.width());  // fully overwritten
    litho::resist_derivative_into(s.responses[m], litho_cfg, *dt);
    runtime::PooledGrid<double> dldi =
        ws.grid_f_uninit(t.height(), t.width());
    for (std::size_t i = 0; i < t.size(); ++i)
      (*dldi)[i] = s.upstream[i] * (*dt)[i];
    aerial.backpropagate(*dldi, s.fields[m], s.grads[m]);
    const GridF& mask = s.masks[m];
    for (std::size_t i = 0; i < s.grads[m].size(); ++i)
      s.grads[m][i] *= state.current_theta_m * mask[i] * (1.0 - mask[i]);
  });
  double g_max = 0.0;
  for (const GridF& g : s.grads) g_max = std::max(g_max, max_abs(g));
  if (g_max > 1e-300) {
    const double scale = state.current_step / g_max;
    for (std::size_t m = 0; m < k; ++m)
      for (std::size_t i = 0; i < s.grads[m].size(); ++i)
        state.p[m][i] -= scale * s.grads[m][i];
  }
  state.current_step *= config_.step_decay;
  state.current_theta_m *= config_.theta_m_anneal;
  ++state.iteration;
}

MplIltResult MplIltEngine::finalize(const MplIltState& state,
                                    const layout::Layout& layout) const {
  MplIltResult result;
  result.iterations_run = state.iteration;
  // Thresholds evaluate in parallel into indexed slots; the winner is
  // picked serially in threshold order, preserving the serial loop's
  // strict-less tie-breaking.
  struct Candidate {
    std::vector<GridF> masks;
    GridF response;
    litho::PrintabilityReport report;
  };
  const std::size_t count = config_.binarize_thresholds.size();
  std::vector<Candidate> candidates(count);
  runtime::parallel_for(count, [&](std::size_t t) {
    Candidate& c = candidates[t];
    const double threshold = config_.binarize_thresholds[t];
    c.masks.reserve(state.p.size());
    for (const GridF& p : state.p) {
      GridF m(p.height(), p.width());
      for (std::size_t i = 0; i < p.size(); ++i)
        m[i] = p[i] >= threshold ? 1.0 : 0.0;
      c.masks.push_back(std::move(m));
    }
    c.response = simulator_.print_masks(c.masks);
    c.report = simulator_.evaluate(c.response, layout);
  });
  bool first = true;
  double best_score = 0.0;
  for (Candidate& c : candidates) {
    const double score = c.report.score();
    if (first || score < best_score) {
      first = false;
      best_score = score;
      result.masks = std::move(c.masks);
      result.response = std::move(c.response);
      result.report = std::move(c.report);
    }
  }
  return result;
}

MplIltResult MplIltEngine::optimize(const layout::Layout& layout,
                                    const layout::Assignment& assignment,
                                    bool abort_on_violation,
                                    bool record_trajectory,
                                    runtime::CancellationToken token) const {
  const GridF target =
      layout::rasterize_target(layout, simulator_.grid_size());
  MplIltState state = init_state(layout, assignment);

  MplIltResult result;
  // One scratch for the whole run (see IltEngine::optimize).
  MplIltScratch scratch;
  for (int iter = 0; iter < config_.max_iterations; ++iter) {
    if (token.cancelled()) {
      result.cancelled = true;
      return result;
    }
    step(state, target, scratch);
    const bool check_now =
        (iter + 1 > config_.violation_check_warmup &&
         (iter + 1) % config_.violation_check_interval == 0) ||
        iter + 1 == config_.max_iterations;
    litho::ViolationReport violations;
    if (check_now || record_trajectory) {
      // Same computation as response_of(state) through the run scratch
      // (step() overwrites these buffers next iteration anyway).
      for (std::size_t m = 0; m < state.p.size(); ++m)
        mask_of_into(state.p[m], state.current_theta_m, scratch.masks[m]);
      simulator_.print_masks_into(scratch.masks, scratch.responses,
                                  scratch.response);
      const GridF& response = scratch.response;
      violations = litho::detect_print_violations(
          litho::binarize(response), layout, simulator_.transform_for(layout));
      if (record_trajectory) {
        const litho::PrintabilityReport continuous =
            simulator_.evaluate(response, layout);
        result.trajectory.push_back({state.iteration, continuous.l2,
                                     continuous.epe.violation_count,
                                     violations.total()});
      }
    }
    result.iterations_run = state.iteration;
    if (abort_on_violation && check_now && violations.total() > 0) {
      result.aborted_on_violation = true;
      break;
    }
  }

  MplIltResult finalized = finalize(state, layout);
  finalized.trajectory = std::move(result.trajectory);
  finalized.iterations_run = result.iterations_run;
  finalized.aborted_on_violation = result.aborted_on_violation;
  return finalized;
}

}  // namespace ldmo::opc

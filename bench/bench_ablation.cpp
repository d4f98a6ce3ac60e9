// Ablation studies of the framework's design choices (not in the paper;
// they quantify the decisions DESIGN.md calls out):
//
//   A. n-wise strength (2 vs 3 vs exhaustive) — candidate count vs the
//      quality of the best candidate in the set.
//   B. Violation-fallback (Fig. 2 loop) on vs off under a deliberately
//      poor predictor.
//   C. SOCS kernel count — forward-model accuracy vs captured TCC energy.
//   D. Final binarization threshold search on vs off.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/log.h"
#include "core/ldmo_flow.h"
#include "core/predictor.h"
#include "kernels/kernels.h"
#include "litho/kernels.h"
#include "mpl/decomposition_generator.h"
#include "runtime/thread_pool.h"

namespace {

using namespace ldmo;

void ablation_nwise(const litho::LithoSimulator& simulator) {
  std::printf("A. n-wise strength vs candidate-set quality\n");
  std::printf("%-10s | %10s | %14s\n", "strength", "candidates",
              "best EPE in set");
  opc::IltEngine engine(simulator, bench::paper_ilt());
  layout::LayoutGenerator gen = bench::experiment_generator();
  for (int strength : {2, 3, 4}) {
    int total_candidates = 0;
    int total_best = 0;
    for (std::uint64_t seed : {9004, 9008, 9012}) {
      const layout::Layout l = gen.generate(seed);
      mpl::GenerationConfig cfg;
      cfg.strength_sp_vp = strength;
      cfg.strength_np = strength - 1;
      const auto generated = mpl::generate_decompositions(l, cfg);
      total_candidates += static_cast<int>(generated.candidates.size());
      int best = 1 << 20;
      // Full-ILT labeling is the expensive part; 12 candidates per
      // (layout, strength) keeps the study under a minute per row while
      // still separating the strengths.
      const std::size_t budget =
          std::min<std::size_t>(12, generated.candidates.size());
      for (std::size_t c = 0; c < budget; ++c)
        best = std::min(best, engine.optimize(l, generated.candidates[c])
                                  .report.epe.violation_count);
      total_best += best;
    }
    std::printf("%-10d | %10d | %14d\n", strength, total_candidates,
                total_best);
  }
}

void ablation_fallback(const litho::LithoSimulator& simulator) {
  std::printf("\nB. violation fallback with an adversarial predictor\n");
  // Predictor that prefers putting everything on one mask (pathological).
  class Pathological : public core::PrintabilityPredictor {
   public:
    std::vector<double> score(
        const std::vector<core::ScoringItem>& items) override {
      std::vector<double> scores;
      for (const core::ScoringItem& item : items) {
        int ones = 0;
        for (int v : *item.assignment) ones += v;
        scores.push_back(ones);  // prefers all-zero (maximal conflicts)
      }
      return scores;
    }
    std::string name() const override { return "pathological"; }
  } predictor;

  layout::LayoutGenerator gen = bench::experiment_generator();
  for (int fallbacks : {0, 6}) {
    core::LdmoConfig cfg;
    cfg.ilt = bench::paper_ilt();
    cfg.max_fallbacks = fallbacks;
    const opc::IltEngine engine(simulator, cfg.ilt);
    int epe = 0, viol = 0, tried = 0;
    for (std::uint64_t seed : {9004, 9008, 9012}) {
      const core::LdmoResult r =
          core::run_ldmo_flow(engine, predictor, cfg, gen.generate(seed));
      epe += r.ilt.report.epe.violation_count;
      viol += r.ilt.report.violations.total();
      tried += r.candidates_tried;
    }
    std::printf("  max_fallbacks=%d: total EPE %d, violations %d, ILT "
                "attempts %d\n",
                fallbacks, epe, viol, tried);
  }
}

void ablation_kernels() {
  std::printf("\nC. SOCS kernel count vs captured TCC energy\n");
  std::printf("%-8s | %-15s | %s\n", "kernels", "energy captured",
              "intensity drift vs K=10");
  // Reference intensity with many kernels.
  litho::LithoConfig ref_cfg = bench::experiment_litho();
  ref_cfg.kernel_count = 10;
  const litho::SocsKernels& ref = litho::cached_kernels(ref_cfg);
  litho::AerialSimulator ref_aerial(ref);
  layout::LayoutGenerator gen = bench::experiment_generator();
  const GridF mask = layout::rasterize_target(gen.generate(9001),
                                              ref_cfg.grid_size);
  const GridF ref_intensity = ref_aerial.intensity(mask);
  for (int k : {2, 4, 6, 8}) {
    litho::LithoConfig cfg = bench::experiment_litho();
    cfg.kernel_count = k;
    const litho::SocsKernels& kernels = litho::cached_kernels(cfg);
    litho::AerialSimulator aerial(kernels);
    const GridF intensity = aerial.intensity(mask);
    double max_drift = 0.0;
    for (std::size_t i = 0; i < intensity.size(); ++i)
      max_drift = std::max(max_drift,
                           std::abs(intensity[i] - ref_intensity[i]));
    std::printf("%-8d | %14.1f%% | %.5f (threshold %.3f)\n", k,
                kernels.captured_energy * 100.0, max_drift,
                cfg.intensity_threshold);
  }
}

void ablation_edge_weight(const litho::LithoSimulator& simulator) {
  std::printf("\nE. edge-weighted ILT loss (extension; 0 = paper-plain)\n");
  layout::LayoutGenerator gen = bench::experiment_generator();
  for (double weight : {0.0, 2.0, 4.0}) {
    opc::IltConfig cfg = bench::paper_ilt();
    cfg.edge_weight = weight;
    opc::IltEngine engine(simulator, cfg);
    int epe = 0;
    double l2 = 0.0;
    for (std::uint64_t seed : {9004, 9008, 9012}) {
      const layout::Layout l = gen.generate(seed);
      const auto candidate = mpl::generate_decompositions(l).candidates[0];
      const auto report = engine.optimize(l, candidate).report;
      epe += report.epe.violation_count;
      l2 += report.l2;
    }
    std::printf("  edge_weight %.1f: total EPE %d, total L2 %.1f\n", weight,
                epe, l2);
  }
}

void ablation_binarize(const litho::LithoSimulator& simulator) {
  std::printf("\nD. final binarization threshold search on/off\n");
  layout::LayoutGenerator gen = bench::experiment_generator();
  for (bool search : {false, true}) {
    opc::IltConfig cfg = bench::paper_ilt();
    if (!search) cfg.binarize_thresholds = {0.0};
    opc::IltEngine engine(simulator, cfg);
    int epe = 0;
    for (std::uint64_t seed : {9004, 9008, 9012}) {
      const layout::Layout l = gen.generate(seed);
      const auto candidate = mpl::generate_decompositions(l).candidates[0];
      epe += engine.optimize(l, candidate).report.epe.violation_count;
    }
    std::printf("  threshold search %s: total EPE %d\n",
                search ? "on " : "off", epe);
  }
}

}  // namespace

int main(int argc, char** argv) {
  runtime::apply_threads_flag(argc, argv);
  kernels::apply_backend_flag(argc, argv);
  set_log_level(LogLevel::Warn);
  const litho::LithoSimulator simulator(bench::experiment_litho());
  std::printf("Ablation studies (3 evaluation layouts each)\n\n");
  ablation_nwise(simulator);
  ablation_fallback(simulator);
  ablation_kernels();
  ablation_edge_weight(simulator);
  ablation_binarize(simulator);
  return 0;
}

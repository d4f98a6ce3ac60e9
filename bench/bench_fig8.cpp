// Reproduces Fig. 8: our sampling strategy vs random sampling.
//
// Two predictors are trained with identical budgets — one with the paper's
// layout sampling (SIFT + k-medoids) and decomposition sampling
// (MST + 3-wise), one with uniform random layouts and random
// decompositions. Both drive the full LDMO flow over a held-out layout
// set; the paper reports the random-sampling flow accumulating about twice
// the EPE violations at comparable runtime.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/log.h"
#include "core/ldmo_flow.h"
#include "kernels/kernels.h"
#include "runtime/thread_pool.h"

int main(int argc, char** argv) {
  using namespace ldmo;
  runtime::apply_threads_flag(argc, argv);
  kernels::apply_backend_flag(argc, argv);
  set_log_level(LogLevel::Warn);
  const litho::LithoSimulator simulator(bench::experiment_litho());

  bench::PredictorOptions ours_opt;  // defaults: both strategies ours
  ours_opt.cache_tag = "ours";
  bench::PredictorOptions random_opt;
  random_opt.our_layout_sampling = false;
  random_opt.our_decomp_sampling = false;
  // Budget parity: the MST+3-wise sampler yields ~5 decompositions per
  // layout (covering arrays are small by design), so the random strategy
  // gets the same labeling budget rather than its configured maximum.
  random_opt.decomps_per_layout = 5;
  random_opt.cache_tag = "random";

  bench::PredictorBundle ours_bundle =
      bench::get_or_train_predictor(simulator, ours_opt);
  bench::PredictorBundle random_bundle =
      bench::get_or_train_predictor(simulator, random_opt);

  core::LdmoConfig cfg;
  cfg.ilt = bench::paper_ilt();
  const opc::IltEngine engine(simulator, cfg.ilt);

  int ours_epe = 0, random_epe = 0;
  double ours_time = 0.0, random_time = 0.0;
  const std::vector<layout::Layout> layouts = bench::table1_layouts();
  for (const layout::Layout& l : layouts) {
    const core::LdmoResult a =
        core::run_ldmo_flow(engine, *ours_bundle.predictor, cfg, l);
    const core::LdmoResult b =
        core::run_ldmo_flow(engine, *random_bundle.predictor, cfg, l);
    ours_epe += a.ilt.report.epe.violation_count;
    random_epe += b.ilt.report.epe.violation_count;
    ours_time += a.total_seconds;
    random_time += b.total_seconds;
  }

  std::printf("Fig. 8 reproduction: sampling strategy comparison over %zu "
              "layouts\n",
              layouts.size());
  std::printf("%-18s | %10s | %10s\n", "strategy", "EPE# total",
              "time (s)");
  std::printf("-------------------+------------+-----------\n");
  std::printf("%-18s | %10d | %10.1f\n", "Ours", ours_epe, ours_time);
  std::printf("%-18s | %10d | %10.1f\n", "Random sampling", random_epe,
              random_time);
  const double epe_ratio =
      static_cast<double>(random_epe) / std::max(1, ours_epe);
  std::printf("\nEPE ratio (random / ours) = %.2f  (paper: ~2.0)\n",
              epe_ratio);
  std::printf("Runtime ratio (random / ours) = %.2f  (paper: ~1.0)\n",
              random_time / std::max(1e-9, ours_time));
  std::printf("SHAPE random_epe_worse=%s\n",
              random_epe > ours_epe ? "yes" : "no");
  return 0;
}

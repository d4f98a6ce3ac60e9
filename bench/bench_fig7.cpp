// Reproduces Fig. 7: qualitative comparison of the final masks / printed
// images of the unified ICCAD'17 flow [10] vs. ours on three NanGate-like
// cells (AOI211_X1, NAND3_X2, BUF_X1 analogues).
//
// Emits PGM images (fig7_<cell>_<flow>_{target,mask1,mask2,print}.pgm)
// plus the EPE-violation counts; the paper's claim is that our flow
// removes the EPE violations the baseline leaves behind.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/log.h"
#include "core/baseline_flows.h"
#include "core/ldmo_flow.h"
#include "kernels/kernels.h"
#include "layout/io.h"
#include "layout/raster.h"
#include "runtime/thread_pool.h"

int main(int argc, char** argv) {
  using namespace ldmo;
  runtime::apply_threads_flag(argc, argv);
  kernels::apply_backend_flag(argc, argv);
  set_log_level(LogLevel::Warn);
  const litho::LithoSimulator simulator(bench::experiment_litho());
  bench::PredictorBundle bundle = bench::get_or_train_predictor(simulator);

  core::UnifiedGreedyConfig unified_cfg;
  unified_cfg.ilt = bench::paper_ilt();
  core::UnifiedGreedyFlow unified(simulator, unified_cfg);
  core::LdmoConfig ours_cfg;
  ours_cfg.ilt = bench::paper_ilt();
  const opc::IltEngine ours_engine(simulator, ours_cfg.ilt);

  layout::LayoutGenerator gen = bench::experiment_generator();
  std::printf("Fig. 7 reproduction: qualitative comparison vs ICCAD'17 [10]\n");
  std::printf("%-12s | %12s | %12s\n", "cell", "[10] EPE#", "Ours EPE#");
  std::printf("-------------+--------------+-------------\n");

  bool ours_never_worse = true;
  for (const std::string cell : {"AOI211_X1", "NAND3_X2", "BUF_X1"}) {
    const layout::Layout l = gen.generate_cell(cell);
    const core::BaselineFlowResult r10 = unified.run(l);
    const core::LdmoResult r_ours =
        core::run_ldmo_flow(ours_engine, *bundle.predictor, ours_cfg, l);
    const int epe10 = r10.ilt.report.epe.violation_count;
    const int epe_ours = r_ours.ilt.report.epe.violation_count;
    std::printf("%-12s | %12d | %12d\n", cell.c_str(), epe10, epe_ours);
    if (epe_ours > epe10) ours_never_worse = false;

    const GridF target =
        layout::rasterize_target(l, simulator.grid_size());
    layout::write_pgm(target, "fig7_" + cell + "_target.pgm");
    layout::write_pgm(r10.ilt.mask1, "fig7_" + cell + "_iccad17_mask1.pgm");
    layout::write_pgm(r10.ilt.mask2, "fig7_" + cell + "_iccad17_mask2.pgm");
    layout::write_pgm(r10.ilt.response, "fig7_" + cell + "_iccad17_print.pgm");
    layout::write_pgm(r_ours.ilt.mask1, "fig7_" + cell + "_ours_mask1.pgm");
    layout::write_pgm(r_ours.ilt.mask2, "fig7_" + cell + "_ours_mask2.pgm");
    layout::write_pgm(r_ours.ilt.response, "fig7_" + cell + "_ours_print.pgm");
  }
  std::printf("\nPGM images written to the working directory "
              "(fig7_<cell>_<flow>_*.pgm)\n");
  std::printf("SHAPE ours_never_worse=%s\n", ours_never_worse ? "yes" : "no");
  return 0;
}

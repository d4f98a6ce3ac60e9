// Quickstart: run the complete LDMO pipeline on one synthetic layout.
//
//   1. generate a NanGate-like contact layout,
//   2. generate decomposition candidates (MST + n-wise),
//   3. rank them with a printability predictor,
//   4. ILT-optimize the best candidate with violation fallback,
//   5. report printability and dump the masks as PGM images.
//
// This example uses the RawPrintPredictor so it runs in seconds without
// training; examples/train_predictor.cpp shows the full CNN path.
#include <cstdio>

#include "core/ldmo_flow.h"
#include "core/predictor.h"
#include "layout/generator.h"
#include "layout/io.h"
#include "layout/raster.h"

int main() {
  using namespace ldmo;

  // A lithography model sized for quick runs (64 px over a 1024nm clip).
  litho::LithoConfig litho_cfg;
  litho_cfg.grid_size = 64;
  litho_cfg.pixel_nm = 16.0;
  const litho::LithoSimulator simulator(litho_cfg);

  // One synthetic standard-cell-like contact layout.
  layout::LayoutGenerator generator;
  const layout::Layout layout = generator.generate(/*seed=*/42);
  std::printf("Layout %s: %d contact patterns in a %lldnm clip\n",
              layout.name.c_str(), layout.pattern_count(),
              static_cast<long long>(layout.clip.width()));

  // The LDMO flow (Fig. 2 of the paper) with a simulation-based predictor.
  core::RawPrintPredictor predictor(simulator);
  const core::LdmoConfig config;
  const core::LdmoResult result = core::run_ldmo_flow(
      opc::IltEngine(simulator, config.ilt), predictor, config, layout);

  std::printf("Candidates generated: %d, ILT attempts: %d\n",
              result.candidates_generated, result.candidates_tried);
  std::printf("Chosen decomposition:");
  for (int mask : result.chosen) std::printf(" %d", mask);
  std::printf("\n");
  std::printf("Final printability: %d EPE violations, %d print violations, "
              "L2 = %.1f (score %.1f)\n",
              result.ilt.report.epe.violation_count,
              result.ilt.report.violations.total(), result.ilt.report.l2,
              result.ilt.report.score());
  std::printf("Runtime: %.2fs (generate %.2fs, predict %.2fs, ILT %.2fs)\n",
              result.total_seconds, result.timing.get("generate"),
              result.timing.get("predict"), result.timing.get("ilt"));

  layout::write_pgm(layout::rasterize_target(layout, simulator.grid_size()),
                    "quickstart_target.pgm");
  layout::write_pgm(result.ilt.mask1, "quickstart_mask1.pgm");
  layout::write_pgm(result.ilt.mask2, "quickstart_mask2.pgm");
  layout::write_pgm(result.ilt.response, "quickstart_print.pgm");
  std::printf("Wrote quickstart_{target,mask1,mask2,print}.pgm\n");
  return 0;
}

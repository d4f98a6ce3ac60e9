// Inspect the decomposition machinery on one layout:
//
//   - pattern classification (SP / VP / NP, Eq. 6),
//   - SP conflict graph + MST (Fig. 3),
//   - n-wise covering arrays and the resulting candidate list (Fig. 4),
//   - raw-print quality of each candidate (before any OPC).
//
// Useful for understanding what the candidate generator actually produces.
#include <cstdio>

#include "core/predictor.h"
#include "layout/generator.h"
#include "layout/io.h"
#include "layout/raster.h"
#include "mpl/decomposition_generator.h"

int main(int argc, char** argv) {
  using namespace ldmo;
  const std::uint64_t seed =
      argc > 1 ? static_cast<std::uint64_t>(std::atoll(argv[1])) : 7;

  layout::LayoutGenerator generator;
  const layout::Layout layout = generator.generate(seed);
  std::printf("Layout %s (%d patterns)\n", layout.name.c_str(),
              layout.pattern_count());

  // Classification per Eq. 6.
  const mpl::PatternClassification classes =
      mpl::classify_patterns(layout);
  auto class_name = [](mpl::PatternClass c) {
    switch (c) {
      case mpl::PatternClass::Separated: return "SP";
      case mpl::PatternClass::Violated: return "VP";
      case mpl::PatternClass::Normal: return "NP";
    }
    return "?";
  };
  for (const layout::Pattern& p : layout.patterns) {
    const double d = layout.nearest_distance(p.id);
    std::printf("  pattern %2d at (%4lld, %4lld): nearest %.1fnm -> %s\n",
                p.id, static_cast<long long>(p.shape.lo.x),
                static_cast<long long>(p.shape.lo.y), d,
                class_name(classes.classes[static_cast<std::size_t>(p.id)]));
  }
  std::printf("SP: %zu, VP: %zu, NP: %zu\n", classes.sp.size(),
              classes.vp.size(), classes.np.size());

  // Candidate generation (Algorithm 1).
  const mpl::GenerationResult generated =
      mpl::generate_decompositions(layout);
  std::printf("\nSP MST: %zu edges across %d component(s), total weight "
              "%.1fnm\n",
              generated.sp_mst.edges.size(), generated.sp_component_count,
              generated.sp_mst.total_weight);
  for (const graph::Edge& e : generated.sp_mst.edges)
    std::printf("  separate patterns %d and %d (%.1fnm apart)\n",
                classes.sp[static_cast<std::size_t>(e.u)],
                classes.sp[static_cast<std::size_t>(e.v)], e.weight);
  std::printf("Covering arrays: Arrs1 %zu rows (3-wise), Arrs2 %zu rows "
              "(2-wise) -> %zu candidates\n",
              generated.arrs1_rows, generated.arrs2_rows,
              generated.candidates.size());

  // Raw-print quality of every candidate (what selection has to choose
  // between, before any mask optimization).
  litho::LithoConfig litho_cfg;
  litho_cfg.grid_size = 64;
  litho_cfg.pixel_nm = 16.0;
  const litho::LithoSimulator simulator(litho_cfg);
  core::RawPrintPredictor predictor(simulator);
  const std::vector<double> raw_scores =
      predictor.score_batch(layout, generated.candidates);
  std::printf("\n%-5s %-24s %s\n", "#", "assignment", "raw-print score");
  for (std::size_t i = 0; i < generated.candidates.size(); ++i) {
    const auto& candidate = generated.candidates[i];
    std::printf("%-5zu ", i);
    for (int mask : candidate) std::printf("%d", mask);
    std::printf("%*s %.1f\n",
                static_cast<int>(24 - candidate.size()), "", raw_scores[i]);
  }

  // Dump the best candidate's grayscale CNN image.
  layout::write_pgm(
      layout::decomposition_image(layout, generated.candidates[0], 224),
      "decomposition_image.pgm");
  std::printf("\nWrote decomposition_image.pgm (224x224 CNN input "
              "encoding)\n");
  return 0;
}

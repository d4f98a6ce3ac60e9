// Compare all four LDMO flows on a handful of layouts — a miniature
// Table I that runs in well under a minute (64 px lithography, no CNN
// training; ours uses the raw-print predictor for candidate ranking).
#include <cstdio>

#include "core/baseline_flows.h"
#include "core/ldmo_flow.h"
#include "core/predictor.h"
#include "layout/generator.h"
#include "mpl/baselines.h"

int main() {
  using namespace ldmo;

  litho::LithoConfig litho_cfg;
  litho_cfg.grid_size = 64;
  litho_cfg.pixel_nm = 16.0;
  const litho::LithoSimulator simulator(litho_cfg);

  core::TwoStageFlow suald(
      simulator,
      [](const layout::Layout& l) {
        return mpl::SpacingUniformityDecomposer().decompose(l);
      });
  core::TwoStageFlow balanced(
      simulator,
      [](const layout::Layout& l) {
        return mpl::BalancedDecomposer().decompose(l);
      });
  core::UnifiedGreedyFlow unified(simulator, {});
  core::RawPrintPredictor predictor(simulator);
  const core::LdmoConfig ours_config;
  const opc::IltEngine ours_engine(simulator, ours_config.ilt);

  layout::LayoutGenerator generator;
  std::printf("%-6s | %-13s | %-13s | %-13s | %-13s\n", "seed",
              "SUALD+ILT", "Balanced+ILT", "Unified[10]", "Ours");
  std::printf("%-6s | %5s %6s | %5s %6s | %5s %6s | %5s %6s\n", "", "EPE",
              "s", "EPE", "s", "EPE", "s", "EPE", "s");
  for (std::uint64_t seed : {201, 202, 203, 204}) {
    const layout::Layout l = generator.generate(seed);
    const auto r1 = suald.run(l);
    const auto r2 = balanced.run(l);
    const auto r3 = unified.run(l);
    const auto r4 = core::run_ldmo_flow(ours_engine, predictor, ours_config, l);
    std::printf(
        "%-6llu | %5d %6.2f | %5d %6.2f | %5d %6.2f | %5d %6.2f\n",
        static_cast<unsigned long long>(seed),
        r1.ilt.report.epe.violation_count, r1.total_seconds,
        r2.ilt.report.epe.violation_count, r2.total_seconds,
        r3.ilt.report.epe.violation_count, r3.total_seconds,
        r4.ilt.report.epe.violation_count, r4.total_seconds);
  }
  return 0;
}

// Reproduces Fig. 1(b) and Fig. 1(c):
//  (b) EPE-violation convergence trajectories of three different
//      decompositions of the same layout through full ILT — demonstrating
//      that intermediate printability mispredicts final printability (the
//      curves cross), which is why greedy pruning on intermediate results
//      is sub-optimal.
//  (c) runtime breakdown of the unified greedy flow [10] into
//      decomposition selection (DS) and mask optimization (MO) — DS is
//      reported at 59.1% in the paper.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/log.h"
#include "core/baseline_flows.h"
#include "core/predictor.h"
#include "kernels/kernels.h"
#include "runtime/thread_pool.h"
#include "sampling/decomposition_sampling.h"

int main(int argc, char** argv) {
  using namespace ldmo;
  runtime::apply_threads_flag(argc, argv);
  kernels::apply_backend_flag(argc, argv);
  set_log_level(LogLevel::Warn);
  bench::BenchReport obs_report("bench_fig1");
  obs_report.meta("experiment",
                  "Fig. 1(b) EPE trajectories; Fig. 1(c) DS/MO split");
  const litho::LithoSimulator simulator(bench::experiment_litho());
  opc::IltEngine engine(simulator, bench::paper_ilt());

  // One layout, three decompositions spread across the quality range
  // (best / middle / worst by raw-print score, drawn from the FULL
  // decomposition space — Fig. 1(a) deliberately shows decompositions of
  // very different final quality, so conflict-violating ones must be
  // eligible here, unlike in the candidate generator).
  layout::LayoutGenerator gen = bench::experiment_generator();
  const layout::Layout layout = gen.generate(9100);
  const std::vector<layout::Assignment> candidates =
      sampling::random_decompositions(layout, 24, 9100);
  core::RawPrintPredictor ranker(simulator);
  const std::vector<double> raw_scores = ranker.score_batch(layout, candidates);
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t i = 0; i < candidates.size(); ++i)
    ranked.push_back({raw_scores[i], i});
  std::sort(ranked.begin(), ranked.end());
  const std::vector<std::size_t> picks = {
      ranked.front().second, ranked[ranked.size() / 2].second,
      ranked.back().second};

  std::printf("Fig. 1(b) reproduction: EPE convergence of 3 decompositions "
              "(layout %s, %d sampled from the full space)\n",
              layout.name.c_str(), static_cast<int>(candidates.size()));
  std::printf("%-10s", "iteration");
  for (std::size_t d = 0; d < picks.size(); ++d)
    std::printf(" DECMP#%zu", d + 1);
  std::printf("\n");

  std::vector<opc::IltResult> runs;
  for (std::size_t pick : picks)
    runs.push_back(engine.optimize(layout, candidates[pick],
                                   /*abort_on_violation=*/false,
                                   /*record_trajectory=*/true));
  for (std::size_t it = 0; it < runs[0].trajectory.size(); ++it) {
    std::printf("%-10d", runs[0].trajectory[it].iteration);
    for (const opc::IltResult& run : runs)
      std::printf(" %7d", run.trajectory[it].epe_violations);
    std::printf("\n");
  }

  // Crossing detection: does any intermediate EPE ranking differ from the
  // final ranking? (The paper's argument for not pruning early: a greedy
  // pruner acting on any such iteration would discard the eventual winner.)
  auto rank_at = [&](std::size_t it) {
    std::vector<std::pair<int, std::size_t>> r;
    for (std::size_t d = 0; d < runs.size(); ++d)
      r.push_back({runs[d].trajectory[it].epe_violations, d});
    std::sort(r.begin(), r.end());
    std::vector<std::size_t> order;
    for (const auto& [epe, d] : r) order.push_back(d);
    return order;
  };
  const auto final_rank = rank_at(runs[0].trajectory.size() - 1);
  bool crossing = false;
  for (std::size_t it = 0; it + 1 < runs[0].trajectory.size(); ++it)
    if (rank_at(it) != final_rank) crossing = true;
  std::printf("SHAPE trajectories_cross=%s\n", crossing ? "yes" : "no");

  // --- Fig. 1(c): DS vs MO runtime split of the unified greedy flow.
  core::UnifiedGreedyConfig cfg;
  cfg.ilt = bench::paper_ilt();
  core::UnifiedGreedyFlow unified(simulator, cfg);
  const core::BaselineFlowResult result = unified.run(layout);
  const double ds = result.timing.get("ds");
  const double mo = result.timing.get("mo");
  const double ds_pct = 100.0 * ds / (ds + mo);
  std::printf("\nFig. 1(c) reproduction: unified-flow runtime breakdown\n");
  std::printf("DS %.1f%%  MO %.1f%%  (paper: DS 59.1%%, MO 40.9%%)\n",
              ds_pct, 100.0 - ds_pct);
  std::printf("SHAPE ds_dominates=%s\n", ds_pct > 50.0 ? "yes" : "no");
  return 0;
}

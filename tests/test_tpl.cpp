// Tests for the triple-patterning extension: k-coloring, TPL candidate
// generation, k-mask printing, multi-mask ILT, and the headline property —
// TPL resolves odd conflict cycles that DPL cannot.
#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "graph/coloring.h"
#include "layout/generator.h"
#include "litho/resist.h"
#include "mpl/tpl.h"
#include "opc/ilt.h"

namespace ldmo {
namespace {

litho::LithoConfig fast_litho() {
  litho::LithoConfig cfg;
  cfg.grid_size = 64;
  cfg.pixel_nm = 16.0;
  cfg.kernel_count = 4;
  return cfg;
}

const litho::LithoSimulator& simulator() {
  static litho::LithoSimulator sim(fast_litho());
  return sim;
}

// Three contacts in a mutual-conflict triangle: pairwise gaps < 80nm.
// 2-uncolorable, 3-colorable.
layout::Layout conflict_triangle() {
  layout::Layout l;
  l.clip = geometry::Rect::from_size({0, 0}, 1024, 1024);
  l.add_pattern(geometry::Rect::from_size({410, 400}, 65, 65));
  l.add_pattern(geometry::Rect::from_size({545, 400}, 65, 65));  // 70nm right
  l.add_pattern(geometry::Rect::from_size({478, 518}, 65, 65));  // ~70 diag
  return l;
}

TEST(KColoring, TriangleNeedsThreeColors) {
  graph::Graph g(3);
  g.add_edge(0, 1, 70);
  g.add_edge(1, 2, 70);
  g.add_edge(0, 2, 70);
  const graph::ColoringResult two = graph::greedy_k_coloring(g, 2);
  EXPECT_GE(two.conflict_count, 1);
  const graph::ColoringResult three = graph::greedy_k_coloring(g, 3);
  EXPECT_EQ(three.conflict_count, 0);
  std::set<int> used(three.color.begin(), three.color.end());
  EXPECT_EQ(used.size(), 3u);
}

TEST(KColoring, BipartiteNeedsOnlyTwo) {
  graph::Graph g(4);
  g.add_edge(0, 1, 70);
  g.add_edge(1, 2, 70);
  g.add_edge(2, 3, 70);
  const graph::ColoringResult r = graph::greedy_k_coloring(g, 3);
  EXPECT_EQ(r.conflict_count, 0);
}

TEST(KColoring, RejectsBadK) {
  graph::Graph g(2);
  EXPECT_THROW(graph::greedy_k_coloring(g, 0), ldmo::Error);
}

TEST(CanonicalizeK, RelabelsByFirstAppearance) {
  EXPECT_EQ(layout::canonicalize_k({2, 0, 1, 2}, 3),
            (layout::Assignment{0, 1, 2, 0}));
  EXPECT_EQ(layout::canonicalize_k({1, 1, 0}, 3),
            (layout::Assignment{0, 0, 1}));
  // Binary case agrees with canonicalize().
  EXPECT_EQ(layout::canonicalize_k({1, 0, 1}, 2),
            layout::canonicalize({1, 0, 1}));
}

TEST(CanonicalizeK, AllPermutationsCollapse) {
  // Every relabeling of the same partition canonicalizes identically.
  const layout::Assignment base = {0, 1, 2, 1, 0};
  std::set<layout::Assignment> canon;
  const int perms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                           {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (const auto& p : perms) {
    layout::Assignment relabeled = base;
    for (int& v : relabeled) v = p[v];
    canon.insert(layout::canonicalize_k(std::move(relabeled), 3));
  }
  EXPECT_EQ(canon.size(), 1u);
}

TEST(CanonicalizeK, RejectsOutOfRange) {
  EXPECT_THROW(layout::canonicalize_k({0, 3}, 3), ldmo::Error);
}

TEST(TplGeneration, TriangleCandidatesSeparateAllConflicts) {
  const layout::Layout l = conflict_triangle();
  const mpl::TplGenerationResult r = mpl::generate_tpl_decompositions(l);
  EXPECT_EQ(r.sp_coloring.conflict_count, 0);
  ASSERT_FALSE(r.candidates.empty());
  for (const auto& c : r.candidates) {
    // All three patterns mutually conflict: all on distinct masks.
    EXPECT_TRUE(c[0] != c[1] && c[1] != c[2] && c[0] != c[2]);
    EXPECT_TRUE(mpl::respects_tpl_separation(r, l, c));
  }
  // Mask-permutation symmetry: the triangle has exactly ONE canonical
  // 3-partition.
  std::set<layout::Assignment> unique(r.candidates.begin(),
                                      r.candidates.end());
  EXPECT_EQ(unique.size(), 1u);
}

TEST(TplGeneration, CandidatesCanonicalAndUnique) {
  layout::LayoutGenerator gen;
  const layout::Layout l = gen.generate(5);
  const mpl::TplGenerationResult r = mpl::generate_tpl_decompositions(l);
  std::set<layout::Assignment> unique(r.candidates.begin(),
                                      r.candidates.end());
  EXPECT_EQ(unique.size(), r.candidates.size());
  for (const auto& c : r.candidates) {
    EXPECT_EQ(c[0], 0);  // first pattern relabels to mask 0
    for (int v : c) EXPECT_LT(v, 3);
  }
}

TEST(TplGeneration, RejectsUnsupportedMaskCount) {
  mpl::TplGenerationConfig cfg;
  cfg.mask_count = 4;
  EXPECT_THROW(
      mpl::generate_tpl_decompositions(conflict_triangle(), cfg),
      ldmo::Error);
}

TEST(MultiPrint, ThreeMaskUnionMatchesTwoMaskWhenThirdEmpty) {
  const layout::Layout l = conflict_triangle();
  const GridF two = simulator().print_decomposition(l, {0, 1, 0});
  const GridF three = simulator().print_decomposition_k(l, {0, 1, 0}, 3);
  // An empty exposure still contributes the resist's dark response
  // sigmoid(-theta_z * I_th) ~ 0.009 per pixel, so the continuous
  // responses differ by that DC floor — but the printed result must match.
  const double dark = litho::sigmoid(-simulator().config().theta_z *
                                     simulator().config().intensity_threshold);
  for (std::size_t i = 0; i < two.size(); ++i)
    EXPECT_NEAR(three[i], std::min(two[i] + dark, 1.0), 1e-9);
  EXPECT_EQ(litho::binarize(two), litho::binarize(three));
}

TEST(MplIlt, TriangleUnsolvableWithTwoMasksSolvableWithThree) {
  // The headline TPL property, end to end through the optimizer.
  const layout::Layout l = conflict_triangle();
  opc::IltConfig cfg;
  cfg.max_iterations = 12;
  cfg.theta_m_anneal = 1.2;

  // Best DPL assignment (two patterns must share a mask).
  opc::IltEngine dpl(simulator(), cfg, 2);
  const opc::IltResult r2 = dpl.optimize(l, {0, 1, 1});
  // TPL: all three separated.
  opc::IltEngine tpl(simulator(), cfg, 3);
  const opc::IltResult r3 = tpl.optimize(l, {0, 1, 2});

  EXPECT_LT(r3.report.score(), r2.report.score());
  EXPECT_EQ(r3.report.violations.total(), 0);
  EXPECT_GT(r2.report.epe.violation_count + r2.report.violations.total(),
            r3.report.epe.violation_count + r3.report.violations.total());
}

TEST(MplIlt, InitStateValidatesMaskRange) {
  opc::IltEngine engine(simulator(), {}, 3);
  EXPECT_THROW(engine.init_state(conflict_triangle(), {0, 1, 3}),
               ldmo::Error);
  EXPECT_THROW(opc::IltEngine(simulator(), {}, 1), ldmo::Error);
  // Edge-weighted loss is available at every mask count.
  opc::IltConfig edge_weighted;
  edge_weighted.edge_weight = 1.0;
  const opc::IltEngine weighted(simulator(), edge_weighted, 3);
  EXPECT_FALSE(weighted.init_state(conflict_triangle(), {0, 1, 2})
                   .loss_weights.empty());
  opc::IltConfig negative_warmup;
  negative_warmup.violation_check_warmup = -1;
  EXPECT_THROW(opc::IltEngine(simulator(), negative_warmup, 3),
               ldmo::Error);
}

TEST(MplIlt, AbortOnViolationWorksForThreeMasks) {
  // All three triangle patterns on one mask: guaranteed print violation.
  opc::IltConfig cfg;
  cfg.max_iterations = 12;
  cfg.violation_check_warmup = 3;  // check early in this short schedule
  opc::IltEngine engine(simulator(), cfg, 3);
  const opc::IltResult r =
      engine.optimize(conflict_triangle(), {0, 0, 0},
                      /*abort_on_violation=*/true);
  EXPECT_TRUE(r.aborted_on_violation);
  EXPECT_LT(r.iterations_run, cfg.max_iterations);
}

}  // namespace
}  // namespace ldmo

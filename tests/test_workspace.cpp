// Tests for the runtime workspace/buffer pools (DESIGN.md §9): checkout
// lifecycle, bit-identity of recycled buffers, stats accounting, concurrent
// checkout + stats reads (the TSan payload), buffer release at thread exit,
// and the zero-allocation steady state of the ILT loop.
//
// Pool counters are cumulative per thread and the gtest main thread reuses
// one workspace across all tests, so every assertion works on deltas and
// each test uses shapes/sizes no other test touches.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layout/raster.h"
#include "obs/metrics.h"
#include "opc/ilt.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "runtime/workspace.h"

namespace ldmo::runtime {
namespace {

using Complex = std::complex<double>;

TEST(WorkspaceGrid, CheckoutRecyclesTheReturnedBuffer) {
  Workspace& ws = Workspace::this_thread();
  const double* ptr = nullptr;
  {
    PooledGrid<double> g = ws.grid_f(13, 17);
    EXPECT_EQ(g->height(), 13);
    EXPECT_EQ(g->width(), 17);
    ptr = g->data();
    g->fill(3.5);
  }
  // LIFO free list: the same storage comes back, zeroed.
  PooledGrid<double> again = ws.grid_f(13, 17);
  EXPECT_EQ(again->data(), ptr);
  for (std::size_t i = 0; i < again->size(); ++i)
    EXPECT_EQ((*again)[i], 0.0);
}

TEST(WorkspaceGrid, ZeroedCheckoutMatchesFreshGrid) {
  Workspace& ws = Workspace::this_thread();
  {
    PooledGrid<Complex> g = ws.grid_c(9, 21);
    g->fill(Complex(-1.5, 2.5));
  }
  PooledGrid<Complex> recycled = ws.grid_c(9, 21);
  const Grid<Complex> fresh(9, 21);
  ASSERT_EQ(recycled->size(), fresh.size());
  EXPECT_EQ(std::memcmp(recycled->data(), fresh.data(),
                        fresh.size() * sizeof(Complex)),
            0);
}

TEST(WorkspaceGrid, UninitCheckoutSkipsZeroing) {
  Workspace& ws = Workspace::this_thread();
  {
    PooledGrid<double> g = ws.grid_f(7, 31);
    g->fill(7.25);
  }
  // Stale contents survive — this is the contract _uninit call sites rely
  // on being allowed to break (they must fully overwrite before reading).
  PooledGrid<double> stale = ws.grid_f_uninit(7, 31);
  EXPECT_EQ((*stale)[0], 7.25);
  EXPECT_EQ((*stale)[stale->size() - 1], 7.25);
}

TEST(WorkspaceGrid, MovedFromGridIsNotPooled) {
  Workspace& ws = Workspace::this_thread();
  const PoolStats before = ws.stats().grid_f;
  {
    PooledGrid<double> g = ws.grid_f(19, 23);
    Grid<double> stolen = std::move(*g);  // leaves a shape/storage mismatch
    EXPECT_EQ(stolen.height(), 19);
  }
  // The hollow grid must be dropped, not parked under the (19, 23) key.
  const PoolStats after = ws.stats().grid_f;
  EXPECT_EQ(after.pooled, before.pooled);
  EXPECT_EQ(after.outstanding, before.outstanding);
  PooledGrid<double> g2 = ws.grid_f(19, 23);
  ASSERT_EQ(g2->size(), static_cast<std::size_t>(19 * 23));
  for (std::size_t i = 0; i < g2->size(); ++i) EXPECT_EQ((*g2)[i], 0.0);
}

TEST(WorkspaceVector, CoveringCapacityCountsAsHit) {
  Workspace& ws = Workspace::this_thread();
  const PoolStats start = ws.stats().vec_f64;
  { PooledVector<double> v = ws.vec_f64(1 << 20); }  // bigger than any pooled
  const PoolStats warmed = ws.stats().vec_f64;
  EXPECT_EQ(warmed.misses - start.misses, 1);
  {
    // Smaller request: the parked capacity covers it — a hit, zeroed.
    PooledVector<double> v = ws.vec_f64(1000);
    EXPECT_EQ(v.size(), 1000u);
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v.data()[i], 0.0);
  }
  const PoolStats after = ws.stats().vec_f64;
  EXPECT_EQ(after.hits - warmed.hits, 1);
  EXPECT_EQ(after.misses, warmed.misses);
}

TEST(WorkspaceVector, GrowingARecycledVectorCountsAsMiss) {
  Workspace& ws = Workspace::this_thread();
  { PooledVector<float> v = ws.vec_f32(333); }
  const PoolStats warmed = ws.stats().vec_f32;
  // 2^21 floats exceed every capacity this suite parks in the f32 pool, so
  // the recycled buffer must reallocate — an honest miss.
  { PooledVector<float> v = ws.vec_f32(1 << 21); }
  const PoolStats after = ws.stats().vec_f32;
  EXPECT_EQ(after.misses - warmed.misses, 1);
  EXPECT_EQ(after.hits, warmed.hits);
}

TEST(WorkspaceStats, TracksOutstandingAndPooledBytes) {
  Workspace& ws = Workspace::this_thread();
  const PoolStats before = ws.stats().grid_c;
  {
    PooledGrid<Complex> g = ws.grid_c(11, 29);
    const PoolStats during = ws.stats().grid_c;
    EXPECT_EQ(during.outstanding - before.outstanding, 1);
  }
  const PoolStats after = ws.stats().grid_c;
  EXPECT_EQ(after.outstanding, before.outstanding);
  EXPECT_EQ(after.pooled - before.pooled, 1);
  EXPECT_EQ(after.pooled_bytes - before.pooled_bytes,
            11u * 29u * sizeof(Complex));
}

TEST(WorkspaceStats, ExplicitClearDropsParkedBuffers) {
  Workspace& ws = Workspace::this_thread();
  { PooledVector<Complex> v = ws.vec_c128(555); }
  EXPECT_GT(ws.stats().vec_c128.pooled, 0);
  ws.clear();
  const WorkspaceStats after = ws.stats();
  EXPECT_EQ(after.total().pooled, 0);
  EXPECT_EQ(after.total().pooled_bytes, 0u);
  // Counters survive the clear (they are lifetime totals).
  EXPECT_GT(after.total().hits + after.total().misses, 0);
}

TEST(WorkspaceMetrics, PublishesGaugesAndLiveCounters) {
  { PooledGrid<double> g = Workspace::this_thread().grid_f(6, 37); }
  publish_workspace_metrics();
  EXPECT_GT(obs::gauge("workspace.pooled_bytes").value(), 0.0);
  EXPECT_GT(obs::gauge("workspace.pooled_buffers").value(), 0.0);
  EXPECT_GE(obs::gauge("workspace.threads").value(), 1.0);
  EXPECT_GT(obs::counter("workspace.hits").value() +
                obs::counter("workspace.misses").value(),
            0);
}

TEST(WorkspaceThreads, ConcurrentCheckoutsAndStatsReads) {
  // Four checkout threads hammering their own workspaces while a fifth
  // aggregates stats and publishes gauges: the TSan payload for the
  // owner-thread free lists + relaxed-atomic stats split.
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      Workspace& ws = Workspace::this_thread();
      for (int i = 0; i < kIters; ++i) {
        PooledGrid<double> g = ws.grid_f(24, 24);
        (*g)[0] = static_cast<double>(i);
        PooledVector<Complex> v = ws.vec_c128_uninit(96);
        v.data()[0] = Complex(1.0, 2.0);
      }
    });
  }
  std::thread reader([] {
    for (int i = 0; i < 100; ++i) {
      (void)workspace_stats();
      publish_workspace_metrics();
    }
  });
  for (std::thread& w : workers) w.join();
  reader.join();
  const PoolStats total = workspace_stats().total();
  EXPECT_GE(total.hits + total.misses,
            static_cast<long long>(kThreads) * kIters * 2);
  // Each worker parked its grid after the first iteration and reused it
  // on every later one (the buffers went when the workers exited).
  EXPECT_GE(workspace_stats().grid_f.hits,
            static_cast<long long>(kThreads) * (kIters - 1));
}

TEST(WorkspaceThreads, ExitedThreadDropsParkedBuffers) {
  // A thread's workspace outlives the thread for its counters, but its
  // parked buffers are dropped as the thread exits.
  Workspace* ws = nullptr;
  PoolStats parked;
  std::thread worker([&] {
    ws = &Workspace::this_thread();
    { PooledGrid<Complex> g = ws->grid_c(61, 67); }
    { PooledGrid<Complex> g = ws->grid_c(61, 67); }
    parked = ws->stats().total();
  });
  worker.join();
  EXPECT_EQ(parked.pooled, 1);
  EXPECT_EQ(parked.pooled_bytes, 61u * 67u * sizeof(Complex));
  const PoolStats after = ws->stats().total();
  EXPECT_EQ(after.pooled, 0);
  EXPECT_EQ(after.pooled_bytes, 0u);
  EXPECT_EQ(after.hits, 1);
  EXPECT_EQ(after.misses, 1);
}

TEST(WorkspaceThreads, ForkJoinWorkersWriteCheckedOutBuffer) {
  // A buffer checked out on this thread may be written by parallel_for
  // workers; the join is the happens-before edge the contract names.
  Workspace& ws = Workspace::this_thread();
  PooledVector<double> v = ws.vec_f64(1024);
  parallel_for(1024, [&](std::size_t i) {
    v.data()[i] = static_cast<double>(i);
  });
  double sum = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) sum += v.data()[i];
  EXPECT_EQ(sum, 1023.0 * 1024.0 / 2.0);
}

layout::Layout steady_state_layout() {
  layout::Layout l;
  l.clip = geometry::Rect::from_size({0, 0}, 1024, 1024);
  l.add_pattern(geometry::Rect::from_size({430, 480}, 65, 65));
  l.add_pattern(geometry::Rect::from_size({615, 480}, 65, 65));
  return l;
}

TEST(WorkspaceSteadyState, IltIterationsHaveZeroPoolMissesAfterWarmup) {
  // The tentpole acceptance criterion: after the first ILT iteration warms
  // the shapes, further iterations perform zero pool misses (and therefore
  // zero heap allocations in the pooled paths), at two and three masks.
  // Runs serial because the parallel chunk->thread assignment is
  // nondeterministic — a worker that sees its first chunk late would
  // record a legitimate cold miss.
  const int saved_threads = thread_count();
  set_thread_count(1);
  {
    litho::LithoConfig cfg;
    cfg.grid_size = 64;
    cfg.pixel_nm = 16.0;
    cfg.kernel_count = 5;
    const litho::LithoSimulator sim(cfg);
    const layout::Layout l = steady_state_layout();
    const GridF target = layout::rasterize_target(l, sim.grid_size());
    for (int k : {2, 3}) {
      SCOPED_TRACE("k = " + std::to_string(k));
      const opc::IltEngine engine(sim, {}, k);
      opc::IltState state = engine.init_state(l, {0, k - 1});
      opc::IltScratch scratch;
      engine.step(state, target, scratch);  // warmup: shapes + pool entries

      const long long misses_before =
          obs::counter("workspace.misses").value();
      const long long hits_before = obs::counter("workspace.hits").value();
      for (int i = 0; i < 5; ++i) engine.step(state, target, scratch);
      EXPECT_EQ(obs::counter("workspace.misses").value() - misses_before, 0)
          << "steady-state ILT iterations must not allocate pooled buffers";
      EXPECT_GT(obs::counter("workspace.hits").value() - hits_before, 0)
          << "the pooled paths should actually be exercising the pools";
    }
  }
  set_thread_count(saved_threads);
}

}  // namespace
}  // namespace ldmo::runtime

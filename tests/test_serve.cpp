// Serving-layer tests: cancellation/deadline plumbing, the sharded LRU
// cache, cross-request batching bit-identity, admission backpressure,
// deadline-aborted ILT, priority scheduling, and a multi-producer
// concurrency smoke (the TSan payload of the "sanitize" label).
//
// Every flow-running test uses a 32-pixel lithography model over the
// generator's 1024nm clip, so a full run is tens of milliseconds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/flow_engine.h"
#include "layout/fingerprint.h"
#include "layout/generator.h"
#include "mpl/decomposition_generator.h"
#include "obs/metrics.h"
#include "runtime/cancellation.h"
#include "serve/batcher.h"
#include "serve/cache_key.h"
#include "serve/result_cache.h"
#include "serve/server.h"

namespace ldmo::serve {
namespace {

litho::LithoConfig fast_litho() {
  litho::LithoConfig cfg;
  cfg.grid_size = 32;
  cfg.pixel_nm = 32.0;  // 32 px x 32 nm = the generator's 1024nm clip
  return cfg;
}

core::FlowEngineConfig fast_engine_config() {
  core::FlowEngineConfig cfg;
  cfg.litho = fast_litho();
  return cfg;
}

ServeConfig fast_serve_config() {
  ServeConfig cfg;
  cfg.engine = fast_engine_config();
  cfg.dispatchers = 2;
  return cfg;
}

layout::Layout test_layout(std::uint64_t seed) {
  return layout::LayoutGenerator().generate(seed);
}

/// The scoring items of every candidate of one layout, in order.
std::vector<core::ScoringItem> items_of(
    const layout::Layout& layout,
    const std::vector<layout::Assignment>& candidates) {
  std::vector<core::ScoringItem> items;
  for (const layout::Assignment& a : candidates)
    items.push_back({&layout, &a});
  return items;
}

// --- cancellation tokens: deadlines and linking ---

TEST(Cancellation, DefaultTokenNeverCancelled) {
  runtime::CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.has_deadline());
}

TEST(Cancellation, ExpiredDeadlineCancels) {
  runtime::CancellationToken token;
  EXPECT_TRUE(token.with_timeout(-1.0).cancelled());
  EXPECT_FALSE(token.with_timeout(3600.0).cancelled());
}

TEST(Cancellation, CombiningDeadlinesKeepsEarlier) {
  runtime::CancellationToken token =
      runtime::CancellationToken{}.with_timeout(3600.0).with_timeout(-1.0);
  EXPECT_TRUE(token.cancelled());
  // The later deadline must not overwrite the earlier one.
  runtime::CancellationToken keep =
      runtime::CancellationToken{}.with_timeout(-1.0).with_timeout(3600.0);
  EXPECT_TRUE(keep.cancelled());
}

TEST(Cancellation, LinkedSourceObservesParent) {
  runtime::CancellationSource parent;
  runtime::CancellationSource child(parent.token());
  EXPECT_FALSE(child.token().cancelled());
  parent.cancel();
  EXPECT_TRUE(child.token().cancelled());
  EXPECT_TRUE(child.cancelled());
}

TEST(Cancellation, ChildCancelLeavesParentUntouched) {
  runtime::CancellationSource parent;
  runtime::CancellationSource child(parent.token());
  child.cancel();
  EXPECT_TRUE(child.token().cancelled());
  EXPECT_FALSE(parent.token().cancelled());
}

// --- FlowEngine::run_many with a token ---

TEST(FlowEngineCancel, PreCancelledTokenYieldsNoResults) {
  core::FlowEngine engine(fast_engine_config());
  runtime::CancellationSource source;
  source.cancel();
  const std::vector<core::LdmoResult> results = engine.run_many(
      {test_layout(1), test_layout(2)}, source.token());
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(engine.session().runs, 0);
}

TEST(FlowEngineCancel, DeadlineTruncatesBatch) {
  core::FlowEngine engine(fast_engine_config());
  // Calibrate: how long does one run take on this machine?
  const auto t0 = std::chrono::steady_clock::now();
  core::LdmoResult cold = engine.run(test_layout(3));
  const double cold_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(cold.cancelled);
  // A deadline worth ~1.2 cold runs cannot complete all three layouts.
  const std::vector<core::LdmoResult> results = engine.run_many(
      {test_layout(4), test_layout(5), test_layout(6)},
      runtime::CancellationToken{}.with_timeout(1.2 * cold_seconds));
  EXPECT_LT(results.size(), 3u);
  for (const core::LdmoResult& r : results) EXPECT_FALSE(r.cancelled);
}

// --- sharded LRU cache ---

TEST(ResultCache, HitReturnsStoredValueAndCounts) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.metric_prefix = "test.cache.hit";
  ShardedLruCache<int> cache(cfg, [](const int&) { return 8u; });
  EXPECT_FALSE(cache.get(1).has_value());
  cache.put(1, 42);
  ASSERT_TRUE(cache.get(1).has_value());
  EXPECT_EQ(*cache.get(1), 42);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_GE(cache.hits(), 2);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ResultCache, ByteBudgetEvictsLeastRecentlyUsed) {
  CacheConfig cfg;
  cfg.shards = 1;
  // Room for exactly two entries (value 36 + overhead 64 = 100 each).
  cfg.budget_bytes = 200;
  cfg.metric_prefix = "test.cache.lru";
  ShardedLruCache<int> cache(cfg, [](const int&) { return 36u; });
  cache.put(1, 10);
  cache.put(2, 20);
  (void)cache.get(1);  // refresh 1 -> victim is 2
  cache.put(3, 30);
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_LE(cache.bytes(), 200u);
}

TEST(ResultCache, OversizeValueIsNotCached) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.budget_bytes = 100;
  cfg.metric_prefix = "test.cache.oversize";
  ShardedLruCache<int> cache(cfg, [](const int&) { return 1000u; });
  cache.put(1, 10);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ResultCache, DisabledCacheNeverStores) {
  CacheConfig cfg;
  cfg.enabled = false;
  cfg.metric_prefix = "test.cache.disabled";
  ShardedLruCache<int> cache(cfg, [](const int&) { return 8u; });
  cache.put(1, 10);
  EXPECT_FALSE(cache.get(1).has_value());
}

TEST(ResultCache, RefreshReplacesValueInPlace) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.metric_prefix = "test.cache.refresh";
  ShardedLruCache<int> cache(cfg, [](const int&) { return 8u; });
  cache.put(1, 10);
  cache.put(1, 11);
  EXPECT_EQ(*cache.get(1), 11);
  EXPECT_EQ(cache.entries(), 1u);
}

// --- cache keys ---

TEST(CacheKey, ConfigChangesChangeTheKey) {
  const core::FlowEngineConfig base = fast_engine_config();
  core::FlowEngineConfig tweaked = base;
  tweaked.flow.ilt.max_iterations += 1;
  const std::uint64_t fp_base = config_fingerprint(base, "raw-print");
  EXPECT_NE(fp_base, config_fingerprint(tweaked, "raw-print"));
  EXPECT_NE(fp_base, config_fingerprint(base, "cnn"));
  EXPECT_EQ(fp_base, config_fingerprint(base, "raw-print"));
}

TEST(CacheKey, ResultKeyIsContentAddressed) {
  const std::uint64_t fp =
      config_fingerprint(fast_engine_config(), "raw-print");
  layout::Layout a = test_layout(7);
  layout::Layout renamed = a;
  renamed.name = "other-name";
  EXPECT_EQ(result_cache_key(fp, a), result_cache_key(fp, renamed));
  EXPECT_NE(result_cache_key(fp, a), result_cache_key(fp, test_layout(8)));
}

TEST(CacheKey, ScoreKeySeparatesCandidates) {
  const std::uint64_t fp =
      config_fingerprint(fast_engine_config(), "raw-print");
  const std::uint64_t lfp = layout::fingerprint(test_layout(7));
  EXPECT_NE(score_cache_key(fp, lfp, {0, 1, 0}),
            score_cache_key(fp, lfp, {0, 1, 1}));
  EXPECT_EQ(score_cache_key(fp, lfp, {0, 1, 0}),
            score_cache_key(fp, lfp, {0, 1, 0}));
}

// Byte equality, so -0.0 vs +0.0 and NaN payloads count as differences.
bool same_bytes(const GridF& a, const GridF& b) {
  return a.height() == b.height() && a.width() == b.width() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(CachedResult, BinaryMasksPackAndUnpackBitForBit) {
  core::LdmoResult result;
  result.chosen = {0, 1, 1};
  result.ilt.mask1 = GridF(8, 9, 0.0);  // 72 pixels: two 64-bit words
  result.ilt.mask1.at(3, 4) = 1.0;
  result.ilt.mask1[71] = 1.0;
  result.ilt.mask2 = GridF(8, 9, 1.0);
  result.ilt.response = GridF(8, 9, 0.25);
  const CachedResult cached = pack_result(result);
  ASSERT_TRUE(cached.mask1.has_value());
  ASSERT_TRUE(cached.mask2.has_value());
  EXPECT_EQ(cached.result.ilt.mask1.size(), 0u);
  EXPECT_EQ(cached.mask1->bits.size(), 2u);
  const core::LdmoResult back = unpack_result(cached);
  EXPECT_TRUE(same_bytes(back.ilt.mask1, result.ilt.mask1));
  EXPECT_TRUE(same_bytes(back.ilt.mask2, result.ilt.mask2));
  EXPECT_TRUE(same_bytes(back.ilt.response, result.ilt.response));
  EXPECT_EQ(back.chosen, result.chosen);
}

TEST(CachedResult, NonBinaryMasksStayWhole) {
  core::LdmoResult result;
  result.ilt.mask1 = GridF(4, 4, 0.0);
  result.ilt.mask1[5] = 0.5;
  result.ilt.mask2 = GridF(4, 4, 1.0);
  result.ilt.mask2[0] = -0.0;  // equals 0.0 but would unpack as +0.0
  const CachedResult cached = pack_result(result);
  EXPECT_FALSE(cached.mask1.has_value());
  EXPECT_FALSE(cached.mask2.has_value());
  const core::LdmoResult back = unpack_result(cached);
  EXPECT_TRUE(same_bytes(back.ilt.mask1, result.ilt.mask1));
  EXPECT_TRUE(same_bytes(back.ilt.mask2, result.ilt.mask2));
}

// --- cross-request batching bit-identity ---

TEST(Batcher, ConcurrentScoresMatchSoloExactly) {
  const litho::LithoSimulator simulator(fast_litho());
  core::RawPrintPredictor solo(simulator);
  core::RawPrintPredictor shared(simulator);
  BatcherConfig cfg;
  cfg.flush_candidates = 64;   // force cross-request coalescing
  cfg.flush_timeout_ms = 20.0;
  InferenceBatcher batcher(shared, cfg);

  constexpr int kJobs = 4;
  std::vector<layout::Layout> layouts;
  std::vector<std::vector<layout::Assignment>> candidates;
  std::vector<std::vector<double>> expected;
  for (int j = 0; j < kJobs; ++j) {
    layouts.push_back(test_layout(20 + static_cast<std::uint64_t>(j)));
    candidates.push_back(
        mpl::generate_decompositions(layouts.back()).candidates);
    expected.push_back(solo.score_batch(layouts.back(), candidates.back()));
  }

  std::vector<std::vector<double>> actual(kJobs);
  std::vector<std::thread> threads;
  for (int j = 0; j < kJobs; ++j)
    threads.emplace_back([&, j] {
      actual[static_cast<std::size_t>(j)] = batcher.score(
          items_of(layouts[static_cast<std::size_t>(j)],
                   candidates[static_cast<std::size_t>(j)]));
    });
  for (std::thread& t : threads) t.join();

  for (int j = 0; j < kJobs; ++j) {
    ASSERT_EQ(actual[j].size(), expected[j].size());
    for (std::size_t c = 0; c < expected[j].size(); ++c)
      EXPECT_EQ(actual[j][c], expected[j][c])  // exact, not near
          << "job " << j << " candidate " << c;
  }
}

TEST(Batcher, CnnMultiJobFlushMatchesPerJobExactly) {
  // The CNN path actually shares fixed-size inference batches across job
  // boundaries — the strongest bit-identity case. Untrained (seeded)
  // weights are fine: only determinism is under test.
  nn::ResNetConfig net_cfg;
  net_cfg.input_size = 32;
  net_cfg.blocks_per_stage = 1;
  core::CnnPredictor cnn(std::make_unique<nn::ResNetRegressor>(net_cfg));

  std::vector<layout::Layout> layouts;
  std::vector<std::vector<layout::Assignment>> candidates;
  for (int j = 0; j < 3; ++j) {
    layouts.push_back(test_layout(50 + static_cast<std::uint64_t>(j)));
    candidates.push_back(
        mpl::generate_decompositions(layouts.back()).candidates);
  }
  std::vector<core::ScoringItem> items;
  for (std::size_t j = 0; j < layouts.size(); ++j) {
    const std::vector<core::ScoringItem> job =
        items_of(layouts[j], candidates[j]);
    items.insert(items.end(), job.begin(), job.end());
  }

  const std::vector<double> multi = cnn.score(items);
  ASSERT_EQ(multi.size(), items.size());
  auto first = multi.begin();
  for (std::size_t j = 0; j < layouts.size(); ++j) {
    const auto last =
        first + static_cast<std::ptrdiff_t>(candidates[j].size());
    EXPECT_EQ(std::vector<double>(first, last),
              cnn.score_batch(layouts[j], candidates[j]))
        << "job " << j;
    first = last;
  }
}

/// Records how many score() calls are in flight at once. Each item's score
/// is a pure function of its layout and assignment, so callers can check
/// they got exactly their own scores back.
class InFlightRecordingBackend : public core::PrintabilityPredictor {
 public:
  static double expected(const layout::Layout& layout,
                         const layout::Assignment& a) {
    double score = static_cast<double>(layout::fingerprint(layout) % 100003);
    for (std::size_t i = 0; i < a.size(); ++i)
      score += static_cast<double>((a[i] + 1) * (i + 1)) * 1e-3;
    return score;
  }
  std::vector<double> score(
      const std::vector<core::ScoringItem>& items) override {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = max_in_flight.load();
    while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
    }
    // Longer than the 2 ms default flush timeout: a second leader's
    // deadline lapses while this call is still inside the backend.
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    std::vector<double> scores;
    for (const core::ScoringItem& item : items)
      scores.push_back(expected(*item.layout, *item.assignment));
    in_flight.fetch_sub(1);
    return scores;
  }
  std::string name() const override { return "in-flight-recording"; }

  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
};

// batcher.h promises backends need not be thread-safe: however callers
// coalesce, at most one flush is inside the backend at a time.
TEST(Batcher, BackendIsNeverEnteredConcurrently) {
  InFlightRecordingBackend backend;
  InferenceBatcher batcher(backend, {});
  constexpr int kThreads = 8;
  constexpr int kCalls = 4;
  std::vector<layout::Layout> layouts;
  for (int t = 0; t < kThreads; ++t)
    layouts.push_back(test_layout(60 + static_cast<std::uint64_t>(t)));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const layout::Layout& l = layouts[static_cast<std::size_t>(t)];
      const std::size_t patterns =
          static_cast<std::size_t>(l.pattern_count());
      for (int c = 0; c < kCalls; ++c) {
        // 1..7 candidates per call, so joiners' slices differ in size.
        std::vector<layout::Assignment> cands(
            static_cast<std::size_t>(1 + (t + 3 * c) % 7),
            layout::Assignment(patterns, 0));
        for (std::size_t k = 0; k < cands.size(); ++k)
          for (std::size_t i = 0; i < patterns; ++i)
            cands[k][i] = static_cast<int>((i + k + c) % 2);
        const std::vector<double> got = batcher.score(items_of(l, cands));
        if (got.size() != cands.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (std::size_t k = 0; k < cands.size(); ++k)
          if (got[k] != InFlightRecordingBackend::expected(l, cands[k]))
            mismatches.fetch_add(1);
      }
    });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(backend.max_in_flight.load(), 1);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(BatchingPredictor, ScoreCacheHitsAreExact) {
  const litho::LithoSimulator simulator(fast_litho());
  core::RawPrintPredictor solo(simulator);
  core::RawPrintPredictor shared(simulator);
  InferenceBatcher batcher(shared, {});
  CacheConfig cache_cfg;
  cache_cfg.metric_prefix = "test.score_cache";
  ShardedLruCache<double> cache(cache_cfg,
                                [](const double&) { return 8u; });
  const std::atomic<std::uint64_t> fp{
      config_fingerprint(fast_engine_config(), shared.name())};
  BatchingPredictor predictor(batcher, &cache, fp);

  const layout::Layout l = test_layout(25);
  const std::vector<layout::Assignment> cands =
      mpl::generate_decompositions(l).candidates;
  const std::vector<double> expected = solo.score_batch(l, cands);
  const std::vector<double> first = predictor.score_batch(l, cands);
  const long long hits_before = cache.hits();
  const std::vector<double> second = predictor.score_batch(l, cands);
  EXPECT_EQ(first, expected);
  EXPECT_EQ(second, expected);
  EXPECT_GE(cache.hits() - hits_before,
            static_cast<long long>(cands.size()));
}

// --- server end-to-end ---

TEST(Server, CacheHitIsBitIdenticalToColdSoloRun) {
  const layout::Layout l = test_layout(30);

  // Ground truth: cold, solo, unserved.
  core::FlowEngine solo(fast_engine_config());
  const core::LdmoResult reference = solo.run(l);

  Server server(fast_serve_config());
  ServeRequest first_request;
  first_request.layout = l;
  const ServeResponse computed =
      server.submit(std::move(first_request)).response.get();
  ASSERT_EQ(computed.status, ServeStatus::kOk);
  ServeRequest second_request;
  second_request.layout = l;
  const ServeResponse cached =
      server.submit(std::move(second_request)).response.get();
  ASSERT_EQ(cached.status, ServeStatus::kCached);
  EXPECT_EQ(cached.cache_key, computed.cache_key);

  for (const core::LdmoResult* r : {&computed.result, &cached.result}) {
    EXPECT_EQ(r->chosen, reference.chosen);
    EXPECT_EQ(r->ilt.mask1, reference.ilt.mask1);  // Grid == is memcmp-like
    EXPECT_EQ(r->ilt.mask2, reference.ilt.mask2);
    EXPECT_EQ(r->ilt.report.score(), reference.ilt.report.score());
  }
  server.shutdown();
}

TEST(Server, BackpressureRejectsWhenFull) {
  ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;
  cfg.queue_capacity = 2;
  cfg.start_paused = true;  // nothing drains until start()
  Server server(cfg);

  std::vector<RequestTicket> tickets;
  for (int i = 0; i < 2; ++i) {
    ServeRequest request;
    request.layout = test_layout(31);
    tickets.push_back(server.submit(std::move(request)));
  }
  EXPECT_EQ(server.queue_depth(), 2u);

  ServeRequest overflow;
  overflow.layout = test_layout(31);
  RequestTicket rejected = server.submit(std::move(overflow));
  EXPECT_EQ(rejected.response.get().status, ServeStatus::kRejected);

  ServeRequest try_overflow;
  try_overflow.layout = test_layout(31);
  EXPECT_FALSE(server.try_submit(std::move(try_overflow)).has_value());
  EXPECT_EQ(server.status_count(ServeStatus::kRejected), 2);

  server.start();
  for (RequestTicket& t : tickets)
    EXPECT_TRUE(t.response.get().ok());
  server.shutdown();
}

TEST(Server, ExpiredDeadlineTimesOutWithoutRunning) {
  ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;
  cfg.start_paused = true;
  Server server(cfg);
  ServeRequest request;
  request.layout = test_layout(32);
  request.deadline_seconds = 0.001;
  RequestTicket ticket = server.submit(std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.start();
  const ServeResponse response = ticket.response.get();
  EXPECT_EQ(response.status, ServeStatus::kTimeout);
  EXPECT_EQ(response.result.ilt.mask1.size(), 0u);  // never computed
  server.shutdown();
}

TEST(Server, DeadlineAbortsIltMidRun) {
  // Calibrate a cold run; skip on machines too fast to catch mid-flight.
  // The 64 px x 16 nm model (the CLI's) keeps the ILT long enough to
  // interrupt; the 32 px flow can finish in under 20 ms.
  core::FlowEngineConfig engine = fast_engine_config();
  engine.litho.grid_size = 64;
  engine.litho.pixel_nm = 16.0;
  core::FlowEngine solo(engine);
  const auto t0 = std::chrono::steady_clock::now();
  (void)solo.run(test_layout(33));
  const double cold_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (cold_seconds < 0.02)
    GTEST_SKIP() << "flow too fast to interrupt reliably";

  ServeConfig cfg = fast_serve_config();
  cfg.engine = engine;
  cfg.dispatchers = 1;
  Server server(cfg);
  ServeRequest request;
  request.layout = test_layout(33);
  request.deadline_seconds = 0.3 * cold_seconds;
  const ServeResponse response =
      server.submit(std::move(request)).response.get();
  EXPECT_EQ(response.status, ServeStatus::kTimeout);
  EXPECT_EQ(response.result.ilt.mask1.size(), 0u);
  server.shutdown();
}

TEST(Server, CancelBeforeDispatchYieldsCancelled) {
  ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;
  cfg.start_paused = true;
  Server server(cfg);
  ServeRequest request;
  request.layout = test_layout(34);
  RequestTicket ticket = server.submit(std::move(request));
  ticket.cancel();
  server.start();
  EXPECT_EQ(ticket.response.get().status, ServeStatus::kCancelled);
  server.shutdown();
}

TEST(Server, PriorityClassesDrainInOrder) {
  ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;  // one consumer -> strict drain order
  cfg.start_paused = true;
  Server server(cfg);

  ServeRequest batch_request;
  batch_request.layout = test_layout(35);
  batch_request.priority = Priority::kBatch;
  ServeRequest normal_request;
  normal_request.layout = test_layout(36);
  normal_request.priority = Priority::kNormal;
  ServeRequest interactive_request;
  interactive_request.layout = test_layout(37);
  interactive_request.priority = Priority::kInteractive;

  // Submitted worst-priority first; completion order must invert it.
  RequestTicket batch_ticket = server.submit(std::move(batch_request));
  RequestTicket normal_ticket = server.submit(std::move(normal_request));
  RequestTicket interactive_ticket =
      server.submit(std::move(interactive_request));
  server.start();

  const ServeResponse batch_response = batch_ticket.response.get();
  const ServeResponse normal_response = normal_ticket.response.get();
  const ServeResponse interactive_response =
      interactive_ticket.response.get();
  EXPECT_LT(interactive_response.completion_sequence,
            normal_response.completion_sequence);
  EXPECT_LT(normal_response.completion_sequence,
            batch_response.completion_sequence);
  server.shutdown();
}

TEST(Server, ShutdownWithoutDrainCancelsQueued) {
  ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;
  cfg.start_paused = true;
  Server server(cfg);
  ServeRequest request;
  request.layout = test_layout(38);
  RequestTicket ticket = server.submit(std::move(request));
  server.shutdown(/*drain=*/false);
  EXPECT_EQ(ticket.response.get().status, ServeStatus::kCancelled);
}

TEST(Server, MultiProducerConcurrencySmoke) {
  // Small but genuinely concurrent: 4 producers x 3 requests over 2
  // unique layouts against 2 dispatchers with batching + both cache
  // tiers. TSan (ctest -L sanitize under -DLDMO_SANITIZE=thread) checks
  // the queue/batcher/cache locking.
  Server server(fast_serve_config());
  const std::vector<layout::Layout> pool = {test_layout(40),
                                            test_layout(41)};
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 3;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ServeRequest request;
        request.layout = pool[static_cast<std::size_t>((p + i) % 2)];
        ServeResponse response =
            server.submit(std::move(request)).response.get();
        if (response.ok()) ok_count.fetch_add(1);
      }
    });
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(ok_count.load(), kProducers * kPerProducer);
  server.shutdown();
}

// A scoring backend that throws plain std::runtime_error on every call.
class AlwaysThrowingBackend : public core::PrintabilityPredictor {
 public:
  std::vector<double> score(const std::vector<core::ScoringItem>&) override {
    throw std::runtime_error("backend down");
  }
  std::string name() const override { return "always-throwing"; }
};

TEST(Server, ThrowingBackendDegradesGracefullyByDefault) {
  // Regression for the dispatcher fault model: before Server::process
  // contained the flow outcome, a throwing backend unwound through the
  // dispatcher thread and std::terminate'd the whole process. Now, with
  // degradation on (the default), every request completes kOk — degraded,
  // uncached, but carrying real violation-checked masks.
  Server server(fast_serve_config(),
                std::make_unique<AlwaysThrowingBackend>());
  const layout::Layout layout = test_layout(50);
  for (int i = 0; i < 3; ++i) {
    ServeRequest request;
    request.layout = layout;
    const ServeResponse response =
        server.submit(std::move(request)).response.get();
    EXPECT_EQ(response.status, ServeStatus::kOk);
    EXPECT_TRUE(response.degraded);
    EXPECT_GT(response.result.ilt.iterations_run, 0);
  }
  // Degraded results never enter the result cache.
  EXPECT_EQ(server.status_count(ServeStatus::kCached), 0);
  EXPECT_EQ(server.degraded_count(), 3);
  server.shutdown();
}

}  // namespace
}  // namespace ldmo::serve

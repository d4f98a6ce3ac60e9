// Fault-injection tests: the failpoint registry itself (modes, env-style
// specs, exactly-once arming across threads), then the failure path of
// every injected site through the stack — flow-level stage attribution,
// predict-stage degradation, and the server's retry / kFailed / cache
// fault handling. The concurrency cases are the TSan payload of the
// "sanitize" label; everything here also carries "faults".
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/flow_engine.h"
#include "flywheel/log.h"
#include "flywheel/sink.h"
#include "flywheel/tuner.h"
#include "layout/generator.h"
#include "serve/server.h"

namespace ldmo {
namespace {

/// Every test disarms on entry and exit: failpoints are process-global,
/// and a leaked armed site would fail unrelated tests in this binary.
struct FailpointGuard {
  FailpointGuard() { fail::disarm_all(); }
  ~FailpointGuard() { fail::disarm_all(); }
};

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

serve::ServeConfig fast_serve_config() {
  serve::ServeConfig cfg;
  cfg.engine = fast_engine_config();
  cfg.dispatchers = 2;
  return cfg;
}

layout::Layout test_layout(std::uint64_t seed) {
  return layout::LayoutGenerator().generate(seed);
}

/// Constant-score predictor: ranks nothing, touches no lithography — lets
/// a litho failpoint target the ILT phase instead of raw-print scoring.
class ConstantPredictor : public core::PrintabilityPredictor {
 public:
  std::vector<double> score(
      const std::vector<core::ScoringItem>& items) override {
    return std::vector<double>(items.size(), 0.0);
  }
  std::string name() const override { return "constant"; }
};

/// Backend that fails every scoring call with a plain std::runtime_error —
/// the shape of a real bug in a model backend, not a tagged FlowException.
class ThrowingPredictor : public core::PrintabilityPredictor {
 public:
  std::vector<double> score(const std::vector<core::ScoringItem>&) override {
    throw std::runtime_error("backend exploded");
  }
  std::string name() const override { return "throwing"; }
};

// --- registry semantics ---

TEST(Failpoint, DisarmedSiteNeverFires) {
  FailpointGuard guard;
  EXPECT_EQ(fail::armed_count(), 0);
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(fail::should_fail("test.nowhere"));
}

TEST(Failpoint, OnceFiresExactlyOnce) {
  FailpointGuard guard;
  fail::arm("test.once", fail::once());
  EXPECT_EQ(fail::armed_count(), 1);
  int fires = 0;
  for (int i = 0; i < 50; ++i)
    if (fail::should_fail("test.once")) ++fires;
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(fail::armed_count(), 0);  // self-disarmed after firing
}

TEST(Failpoint, OnceFiresExactlyOnceAcrossThreads) {
  FailpointGuard guard;
  fail::arm("test.once_mt", fail::once());
  std::atomic<int> fires{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i)
        if (fail::should_fail("test.once_mt")) fires.fetch_add(1);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fires.load(), 1);
}

TEST(Failpoint, EveryNthFiresOnThePeriod) {
  FailpointGuard guard;
  fail::arm("test.nth", fail::every_nth(3));
  std::vector<bool> pattern;
  for (int i = 0; i < 9; ++i) pattern.push_back(fail::should_fail("test.nth"));
  const std::vector<bool> expected = {false, false, true, false, false,
                                      true,  false, false, true};
  EXPECT_EQ(pattern, expected);
  EXPECT_EQ(fail::fire_count("test.nth"), 3);
}

TEST(Failpoint, EveryFirstFiresAlways) {
  FailpointGuard guard;
  fail::arm("test.always", fail::every_nth(1));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fail::should_fail("test.always"));
}

TEST(Failpoint, ProbabilityExtremesAndDeterminism) {
  FailpointGuard guard;
  fail::arm("test.p1", fail::probability(1.0));
  fail::arm("test.p0", fail::probability(0.0));
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(fail::should_fail("test.p1"));
    EXPECT_FALSE(fail::should_fail("test.p0"));
  }
  // Same seed, same site evaluation order => identical firing pattern.
  const auto sample = [](std::uint64_t seed) {
    fail::arm("test.seeded", fail::probability(0.3, seed));
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i)
      pattern.push_back(fail::should_fail("test.seeded"));
    return pattern;
  };
  EXPECT_EQ(sample(42), sample(42));
  EXPECT_NE(sample(42), sample(43));  // astronomically unlikely to collide
}

TEST(Failpoint, ArmFromSpecParsesAllModes) {
  FailpointGuard guard;
  fail::arm_from_spec("a=once,b=every:2,c=prob:0.5:7,d=off");
  const std::vector<std::string> armed = fail::armed_sites();
  EXPECT_EQ(armed, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(fail::should_fail("a"));
  EXPECT_FALSE(fail::should_fail("b"));
  EXPECT_TRUE(fail::should_fail("b"));
}

TEST(Failpoint, ArmFromSpecRejectsGarbage) {
  FailpointGuard guard;
  EXPECT_THROW(fail::arm_from_spec("noequals"), Error);
  EXPECT_THROW(fail::arm_from_spec("site=never"), Error);
  EXPECT_THROW(fail::arm_from_spec("=once"), Error);
  EXPECT_THROW(fail::arm_from_spec("site=every:0"), Error);
  EXPECT_THROW(fail::arm_from_spec("site=prob:1.5"), Error);
}

TEST(Failpoint, FireCountSurvivesDisarm) {
  FailpointGuard guard;
  fail::arm("test.count", fail::every_nth(1));
  (void)fail::should_fail("test.count");
  (void)fail::should_fail("test.count");
  fail::disarm("test.count");
  EXPECT_EQ(fail::fire_count("test.count"), 2);
  EXPECT_FALSE(fail::should_fail("test.count"));
}

TEST(Failpoint, MaybeFailThrowsTaggedFlowException) {
  FailpointGuard guard;
  fail::arm("test.throwing", fail::once());
  try {
    fail::maybe_fail("test.throwing", FlowStage::kLitho);
    FAIL() << "failpoint did not throw";
  } catch (const FlowException& e) {
    EXPECT_EQ(e.stage(), FlowStage::kLitho);
    EXPECT_NE(std::string(e.what()).find("test.throwing"),
              std::string::npos);
  }
  // Disarmed again: the site is free.
  fail::maybe_fail("test.throwing", FlowStage::kLitho);
}

// --- flow-level failure paths, one per injected site ---

TEST(FlowFaults, GenerateFaultFailsRunWithDecomposeStage) {
  FailpointGuard guard;
  core::FlowEngine engine(fast_engine_config());
  const layout::Layout layout = test_layout(1);
  fail::arm("mpl.generate", fail::once());
  const core::LdmoResult failed = engine.run(layout);
  EXPECT_TRUE(failed.failed);
  EXPECT_FALSE(failed.degraded);
  EXPECT_EQ(failed.error.stage, FlowStage::kDecompose);
  EXPECT_EQ(engine.session().failed_runs, 1);
  EXPECT_EQ(engine.session().runs, 0);
  // The engine is unharmed: the next run succeeds and enters the history.
  const core::LdmoResult ok = engine.run(layout);
  EXPECT_FALSE(ok.failed);
  EXPECT_GT(ok.ilt.iterations_run, 0);
  EXPECT_EQ(engine.session().runs, 1);
}

TEST(FlowFaults, PredictFaultDegradesToGenerationOrder) {
  FailpointGuard guard;
  core::FlowEngine engine(fast_engine_config());
  const layout::Layout layout = test_layout(2);
  fail::arm("predictor.score", fail::once());
  const core::LdmoResult degraded = engine.run(layout);
  EXPECT_FALSE(degraded.failed);
  EXPECT_TRUE(degraded.degraded);
  // Degraded runs still deliver violation-checked masks.
  EXPECT_GT(degraded.ilt.iterations_run, 0);
  EXPECT_GT(degraded.candidates_tried, 0);
  EXPECT_EQ(engine.session().degraded_runs, 1);
  EXPECT_EQ(engine.session().runs, 1);
}

TEST(FlowFaults, PredictFaultFailsWhenDegradeDisabled) {
  FailpointGuard guard;
  core::FlowEngineConfig cfg = fast_engine_config();
  cfg.flow.degrade_on_predict_failure = false;
  core::FlowEngine engine(cfg);
  fail::arm("predictor.score", fail::once());
  const core::LdmoResult result = engine.run(test_layout(3));
  EXPECT_TRUE(result.failed);
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.error.stage, FlowStage::kPredict);
}

TEST(FlowFaults, IltFaultFailsWithIltStage) {
  FailpointGuard guard;
  core::FlowEngine engine(fast_engine_config());
  fail::arm("opc.ilt.optimize", fail::once());
  const core::LdmoResult result = engine.run(test_layout(4));
  EXPECT_TRUE(result.failed);
  EXPECT_EQ(result.error.stage, FlowStage::kIlt);
}

TEST(FlowFaults, LithoFaultInsideIltKeepsLithoStage) {
  FailpointGuard guard;
  // A predictor that never touches the simulator, so the first exposure —
  // and the armed failpoint — happens inside a speculative ILT attempt.
  // The FlowException's kLitho tag must survive the TaskGroup rethrow and
  // the ilt-phase catch.
  core::FlowEngine engine(fast_engine_config(),
                          std::make_unique<ConstantPredictor>());
  fail::arm("litho.expose", fail::once());
  const core::LdmoResult result = engine.run(test_layout(5));
  EXPECT_TRUE(result.failed);
  EXPECT_EQ(result.error.stage, FlowStage::kLitho);
}

TEST(FlowFaults, RunManyKeepsFailedSlotAligned) {
  FailpointGuard guard;
  core::FlowEngine engine(fast_engine_config());
  const std::vector<layout::Layout> layouts = {test_layout(6), test_layout(7),
                                               test_layout(8)};
  // Fires on the second run only: mpl.generate evaluates once per run.
  fail::arm("mpl.generate", fail::every_nth(2));
  const std::vector<core::LdmoResult> results = engine.run_many(layouts);
  fail::disarm_all();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].failed);
  EXPECT_TRUE(results[1].failed);
  EXPECT_EQ(results[1].error.stage, FlowStage::kDecompose);
  EXPECT_FALSE(results[2].failed);
  EXPECT_EQ(engine.session().failed_runs, 1);
  EXPECT_EQ(engine.session().runs, 2);
}

// --- server-level failure handling ---

TEST(ServeFaults, ThrowingBackendFailsRequestsNotTheServer) {
  FailpointGuard guard;
  serve::ServeConfig cfg = fast_serve_config();
  cfg.engine.flow.degrade_on_predict_failure = false;
  serve::Server server(cfg, std::make_unique<ThrowingPredictor>());
  constexpr int kRequests = 6;
  std::vector<serve::RequestTicket> tickets;
  for (int i = 0; i < kRequests; ++i) {
    serve::ServeRequest request;
    request.layout = test_layout(10 + static_cast<std::uint64_t>(i));
    tickets.push_back(server.submit(std::move(request)));
  }
  // Every future resolves (no std::terminate, no broken promise), each as
  // a stage-attributed failure.
  for (serve::RequestTicket& ticket : tickets) {
    const serve::ServeResponse response = ticket.response.get();
    EXPECT_EQ(response.status, serve::ServeStatus::kFailed);
    EXPECT_EQ(response.error.stage, FlowStage::kPredict);
    EXPECT_FALSE(response.error.message.empty());
  }
  EXPECT_EQ(server.status_count(serve::ServeStatus::kFailed), kRequests);
  EXPECT_GE(server.error_count(FlowStage::kPredict), kRequests);
  // The dispatchers survived: the server still accepts and finishes work.
  serve::ServeRequest again;
  again.layout = test_layout(10);
  serve::RequestTicket ticket = server.submit(std::move(again));
  EXPECT_EQ(ticket.response.get().status, serve::ServeStatus::kFailed);
  server.shutdown();
}

TEST(ServeFaults, RetryAbsorbsTransientFault) {
  FailpointGuard guard;
  serve::ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;  // one engine: the retry reuses the same session
  cfg.retry.max_attempts = 2;
  cfg.retry.initial_backoff_ms = 1.0;
  serve::Server server(cfg);
  fail::arm("mpl.generate", fail::once());
  serve::ServeRequest request;
  request.layout = test_layout(20);
  const serve::ServeResponse response =
      server.submit(std::move(request)).response.get();
  EXPECT_EQ(response.status, serve::ServeStatus::kOk);
  EXPECT_EQ(response.attempts, 2);
  EXPECT_EQ(server.retry_count(), 1);
  EXPECT_EQ(server.error_count(FlowStage::kDecompose), 1);
  server.shutdown();
}

TEST(ServeFaults, PersistentFaultExhaustsRetriesToFailed) {
  FailpointGuard guard;
  serve::ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;
  cfg.retry.max_attempts = 2;
  cfg.retry.initial_backoff_ms = 1.0;
  serve::Server server(cfg);
  fail::arm("mpl.generate", fail::every_nth(1));
  serve::ServeRequest request;
  request.layout = test_layout(21);
  const serve::ServeResponse response =
      server.submit(std::move(request)).response.get();
  fail::disarm_all();
  EXPECT_EQ(response.status, serve::ServeStatus::kFailed);
  EXPECT_EQ(response.attempts, 2);
  EXPECT_EQ(response.error.stage, FlowStage::kDecompose);
  EXPECT_EQ(server.error_count(FlowStage::kDecompose), 2);
  server.shutdown();
}

TEST(ServeFaults, CacheFaultDegradesToMiss) {
  FailpointGuard guard;
  serve::ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;
  serve::Server server(cfg);
  fail::arm("serve.cache", fail::every_nth(1));
  const layout::Layout layout = test_layout(22);
  for (int i = 0; i < 2; ++i) {
    serve::ServeRequest request;
    request.layout = layout;
    const serve::ServeResponse response =
        server.submit(std::move(request)).response.get();
    // Never kCached: every get fails over to a recompute and every put is
    // dropped — the cache fault costs latency, not correctness.
    EXPECT_EQ(response.status, serve::ServeStatus::kOk);
  }
  fail::disarm_all();
  // Both requests hit the get fault and the put fault.
  EXPECT_EQ(server.error_count(FlowStage::kCache), 4);
  server.shutdown();
}

TEST(ServeFaults, DegradedResponsesAreNotCached) {
  FailpointGuard guard;
  serve::ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;
  serve::Server server(cfg);
  // Every scoring call fails: each request degrades, and because degraded
  // results stay out of the result cache, the second request is kOk (a
  // fresh degraded run), not kCached.
  fail::arm("predictor.score", fail::every_nth(1));
  const layout::Layout layout = test_layout(23);
  for (int i = 0; i < 2; ++i) {
    serve::ServeRequest request;
    request.layout = layout;
    const serve::ServeResponse response =
        server.submit(std::move(request)).response.get();
    EXPECT_EQ(response.status, serve::ServeStatus::kOk);
    EXPECT_TRUE(response.degraded);
  }
  fail::disarm_all();
  EXPECT_EQ(server.degraded_count(), 2);
  EXPECT_EQ(server.status_count(serve::ServeStatus::kCached), 0);
  // With the predictor healthy again the same layout computes, caches, and
  // only then serves from cache.
  for (int i = 0; i < 2; ++i) {
    serve::ServeRequest request;
    request.layout = layout;
    const serve::ServeResponse response =
        server.submit(std::move(request)).response.get();
    EXPECT_EQ(response.status, i == 0 ? serve::ServeStatus::kOk
                                      : serve::ServeStatus::kCached);
    EXPECT_FALSE(response.degraded);
  }
  server.shutdown();
}

TEST(ServeFaults, MixedFaultDrillCompletesEveryRequest) {
  FailpointGuard guard;
  serve::ServeConfig cfg = fast_serve_config();
  cfg.retry.max_attempts = 2;
  cfg.retry.initial_backoff_ms = 1.0;
  serve::Server server(cfg);
  fail::arm("mpl.generate", fail::probability(0.2, 1));
  fail::arm("predictor.score", fail::probability(0.2, 2));
  fail::arm("opc.ilt.optimize", fail::probability(0.2, 3));
  fail::arm("serve.cache", fail::probability(0.2, 4));
  constexpr int kRequests = 12;
  std::atomic<int> next{0};
  std::atomic<int> resolved{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c)
    clients.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= kRequests) return;
        serve::ServeRequest request;
        request.layout = test_layout(30 + static_cast<std::uint64_t>(i % 4));
        const serve::ServeResponse response =
            server.submit(std::move(request)).response.get();
        EXPECT_TRUE(response.status == serve::ServeStatus::kOk ||
                    response.status == serve::ServeStatus::kCached ||
                    response.status == serve::ServeStatus::kFailed)
            << serve::status_name(response.status);
        resolved.fetch_add(1);
      }
    });
  for (std::thread& t : clients) t.join();
  fail::disarm_all();
  EXPECT_EQ(resolved.load(), kRequests);
  long long terminal = 0;
  for (int s = 0; s < serve::kServeStatusCount; ++s)
    terminal += server.status_count(static_cast<serve::ServeStatus>(s));
  EXPECT_EQ(terminal, kRequests);
  server.shutdown();
}

// --- flywheel fault drills (ISSUE-10) ---------------------------------------

TEST(FlywheelFaults, AppendFaultDropsPairsButNeverFailsRequests) {
  FailpointGuard guard;
  const std::string path = "test_failpoint_flywheel_append.bin";
  std::remove(path.c_str());
  {
    auto sink = std::make_shared<flywheel::TrainingLogSink>(
        flywheel::SinkConfig{.path = path, .image_size = 32});
    serve::ServeConfig cfg = fast_serve_config();
    cfg.capture = sink;
    serve::Server server(cfg);

    // Every second append faults mid-cycle. Capture is telemetry: the
    // request path must stay green while the writer eats the failures.
    fail::arm("flywheel.log.append", fail::every_nth(2));
    for (std::uint64_t seed = 60; seed < 66; ++seed) {
      serve::ServeRequest request;
      request.layout = test_layout(seed);
      const serve::ServeResponse response =
          server.submit(std::move(request)).response.get();
      EXPECT_EQ(response.status, serve::ServeStatus::kOk);
      EXPECT_FALSE(response.degraded);
    }
    sink->drain();
    fail::disarm_all();

    EXPECT_EQ(server.status_count(serve::ServeStatus::kFailed), 0);
    EXPECT_EQ(sink->captured(), 3);  // the odd-numbered appends survived
    EXPECT_EQ(sink->dropped(), 3);   // the fired ones were counted, not fatal
  }
  // The failpoint fires BEFORE any bytes land, so the log holds exactly
  // the surviving records and reads back clean — no torn tail.
  const flywheel::TrainingLog log = flywheel::read_training_log(path);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.pairs.size(), 3u);
  std::remove(path.c_str());
}

TEST(FlywheelFaults, SaveFaultAbortsPromotionAndIncumbentKeepsServing) {
  FailpointGuard guard;
  const std::string path = "test_failpoint_flywheel_save.bin";
  const std::string scratch = path + ".candidate.bin";
  std::remove(path.c_str());
  const int side = 16;
  {
    flywheel::TrainingLogWriter writer(path, side);
    for (int i = 0; i < 16; ++i) {
      flywheel::TrainingPair pair;
      pair.image.assign(static_cast<std::size_t>(side) * side,
                        static_cast<float>(i + 1) / 16.0f);
      pair.score = static_cast<double>(i + 1) / 16.0;
      writer.append(pair);
    }
  }

  flywheel::TunerConfig tcfg;
  tcfg.log_path = path;
  tcfg.network.input_size = side;
  tcfg.network.width_multiplier = 0.125;
  tcfg.trainer.epochs = 4;
  tcfg.trainer.batch_size = 4;
  tcfg.min_new_records = 8;
  tcfg.holdout_every = 4;
  int promotions_seen = 0;
  flywheel::FineTuner tuner(
      tcfg, [&](std::uint64_t, const std::vector<std::uint8_t>&) {
        ++promotions_seen;
      });

  // Weight serialization faults mid-promotion: the round aborts, the
  // incumbent (here: none yet — version 0) keeps serving, and nothing
  // reaches the deployment edge.
  fail::arm("nn.save", fail::once());
  const flywheel::TuneRound faulted = tuner.run_once();
  EXPECT_TRUE(faulted.attempted);
  EXPECT_FALSE(faulted.promoted);
  EXPECT_NE(faulted.detail.find("promotion aborted"), std::string::npos);
  EXPECT_EQ(promotions_seen, 0);
  EXPECT_EQ(tuner.version(), 0u);
  fail::disarm_all();

  // Fresh data after the fault clears: the next round promotes normally —
  // the flywheel recovered on its own.
  {
    flywheel::TrainingLogWriter writer(path, side);
    for (int i = 0; i < 8; ++i) {
      flywheel::TrainingPair pair;
      pair.image.assign(static_cast<std::size_t>(side) * side,
                        1.0f - static_cast<float>(i + 1) / 16.0f);
      pair.score = 1.0 - static_cast<double>(i + 1) / 16.0;
      writer.append(pair);
    }
  }
  const flywheel::TuneRound recovered = tuner.run_once();
  EXPECT_TRUE(recovered.attempted);
  EXPECT_TRUE(recovered.promoted);
  EXPECT_EQ(promotions_seen, 1);
  EXPECT_EQ(tuner.version(), 1u);
  std::remove(path.c_str());
  std::remove(scratch.c_str());
}

}  // namespace
}  // namespace ldmo

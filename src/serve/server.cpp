#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "obs/span.h"
#include "runtime/thread_pool.h"

namespace ldmo::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

obs::Counter& status_counter(ServeStatus status) {
  return obs::counter(std::string("serve.requests.") + status_name(status));
}

constexpr const char* kLatencyHistogram = "serve.latency.seconds";

/// End-to-end latency of ok/cached responses. Log-spaced from sub-ms
/// cache hits to multi-second cold full-flow runs; quantiles come from
/// HistogramSample::quantile, so the report and the sliding window agree.
obs::Histogram& latency_histogram() {
  static obs::Histogram& h = obs::histogram(
      kLatencyHistogram, {0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                          0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0});
  return h;
}

}  // namespace

Server::Server(ServeConfig config,
               std::unique_ptr<core::PrintabilityPredictor> backend)
    : config_(std::move(config)),
      backend_simulator_(backend != nullptr
                             ? nullptr
                             : std::make_unique<litho::LithoSimulator>(
                                   config_.engine.litho)),
      backend_(backend != nullptr
                   ? std::move(backend)
                   : std::make_unique<core::RawPrintPredictor>(
                         *backend_simulator_)),
      config_fp_(serve::config_fingerprint(
          config_.engine, backend_->name(),
          config_.warm_start ? config_.warm_start->version() : 0)),
      batcher_(*backend_, config_.batcher),
      score_cache_(config_.score_cache,
                   [](const double&) { return sizeof(double); }),
      result_cache_(config_.result_cache, &estimated_bytes),
      queue_(config_.queue_capacity),
      paused_(config_.start_paused),
      started_(Clock::now()),
      flight_recorder_(config_.flight.capacity) {
  require(config_.dispatchers >= 1, "Server: dispatchers must be >= 1");
  engines_.reserve(static_cast<std::size_t>(config_.dispatchers));
  for (int i = 0; i < config_.dispatchers; ++i) {
    engines_.push_back(std::make_unique<core::FlowEngine>(
        config_.engine, std::make_unique<BatchingPredictor>(
                            batcher_, &score_cache_, config_fp_)));
    if (config_.warm_start) engines_.back()->set_warm_start(config_.warm_start);
  }
  dispatchers_.reserve(engines_.size());
  for (int i = 0; i < config_.dispatchers; ++i)
    dispatchers_.emplace_back([this, i] { dispatcher_loop(i); });
  if (config_.admin.enabled) {
    obs::WindowConfig window;
    window.interval_seconds = config_.admin.window_interval_seconds;
    window.capacity = config_.admin.window_capacity;
    window.pre_sample = [] { runtime::publish_metrics(); };
    window_ = std::make_unique<obs::WindowSampler>(std::move(window));
    window_->start();
    admin_ = std::make_unique<AdminServer>(config_.admin, *this);
  }
}

Server::~Server() { shutdown(/*drain=*/true); }

Server::Pending Server::make_pending(ServeRequest request) {
  Pending pending;
  pending.id = next_id_.fetch_add(1) + 1;
  pending.request = std::move(request);
  pending.cancel = std::make_shared<runtime::CancellationSource>();
  pending.submitted = Clock::now();
  pending.deadline =
      pending.request.deadline_seconds > 0.0
          ? pending.submitted +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        pending.request.deadline_seconds))
          : Clock::time_point::max();
  return pending;
}

RequestTicket Server::ticket_for(const Pending& pending) {
  RequestTicket ticket;
  ticket.id = pending.id;
  ticket.canceller = pending.cancel;
  return ticket;
}

ServeResponse Server::rejected_response(std::uint64_t id) {
  ServeResponse response;
  response.status = ServeStatus::kRejected;
  response.request_id = id;
  response.completion_sequence = completion_seq_.fetch_add(1) + 1;
  status_counts_[static_cast<std::size_t>(ServeStatus::kRejected)]
      .fetch_add(1);
  status_counter(ServeStatus::kRejected).inc();
  return response;
}

RequestTicket Server::submit(ServeRequest request) {
  obs::counter("serve.requests.submitted").inc();
  Pending pending = make_pending(std::move(request));
  RequestTicket ticket = ticket_for(pending);
  ticket.response = pending.promise.get_future();
  const Priority priority = pending.request.priority;
  const std::uint64_t id = pending.id;
  const bool admitted =
      config_.overflow == OverflowPolicy::kBlock
          ? queue_.push_blocking(std::move(pending), priority)
          : queue_.try_push(std::move(pending), priority);
  if (!admitted) {
    // The rejected Pending (and its promise) died with the failed push;
    // hand back a fresh, already-fulfilled future instead.
    std::promise<ServeResponse> promise;
    ticket.response = promise.get_future();
    promise.set_value(rejected_response(id));
  }
  return ticket;
}

std::optional<RequestTicket> Server::try_submit(ServeRequest request) {
  obs::counter("serve.requests.submitted").inc();
  Pending pending = make_pending(std::move(request));
  RequestTicket ticket = ticket_for(pending);
  ticket.response = pending.promise.get_future();
  const Priority priority = pending.request.priority;
  if (!queue_.try_push(std::move(pending), priority)) {
    status_counter(ServeStatus::kRejected).inc();
    status_counts_[static_cast<std::size_t>(ServeStatus::kRejected)]
        .fetch_add(1);
    return std::nullopt;
  }
  return ticket;
}

void Server::start() {
  std::lock_guard<std::mutex> lock(pause_mu_);
  paused_ = false;
  pause_cv_.notify_all();
}

void Server::shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_.close();
  if (!drain) {
    std::vector<Pending> abandoned = queue_.drain();
    for (Pending& pending : abandoned) {
      ServeResponse response;
      response.status = ServeStatus::kCancelled;
      response.request_id = pending.id;
      response.completion_sequence = completion_seq_.fetch_add(1) + 1;
      status_counts_[static_cast<std::size_t>(ServeStatus::kCancelled)]
          .fetch_add(1);
      status_counter(ServeStatus::kCancelled).inc();
      pending.promise.set_value(std::move(response));
    }
  }
  start();  // unpark dispatchers so they can observe the closed queue
  for (std::thread& t : dispatchers_)
    if (t.joinable()) t.join();
  // The admin endpoint outlives the dispatchers (a scrape during drain
  // still answers; /readyz reports not-ready as soon as the queue closes)
  // and stops only once the server has no more state changes to publish.
  if (admin_) admin_->stop();
  if (window_) window_->stop();
  dump_flight_recorder("shutdown", /*rate_limited=*/false);
}

void Server::swap_backend(
    std::unique_ptr<core::PrintabilityPredictor> fresh) {
  require(fresh != nullptr, "swap_backend: null predictor");
  // Exclusive acquisition = every in-flight process() has finished and new
  // ones queue behind us. The batcher cannot be mid-flush either, but
  // set_backend still waits that condition out for belt and braces.
  std::unique_lock<std::shared_mutex> lock(backend_mu_);
  std::unique_ptr<core::PrintabilityPredictor> old = std::move(backend_);
  backend_ = std::move(fresh);
  batcher_.set_backend(*backend_);
  const std::uint64_t fp = serve::config_fingerprint(
      config_.engine, backend_->name(),
      config_.warm_start ? config_.warm_start->version() : 0);
  config_fp_.store(fp);
  backend_swaps_.fetch_add(1);
  obs::counter("serve.backend_swaps").inc();
  log_info("serve: backend swapped to ", backend_->name(),
           " (config fingerprint ", fp, ")");
  // `old` destructs here, after the batcher stopped referencing it.
}

std::string Server::predictor_name() const {
  std::shared_lock<std::shared_mutex> lock(backend_mu_);
  return backend_->name();
}

void Server::dispatcher_loop(int index) {
  core::FlowEngine& engine = *engines_[static_cast<std::size_t>(index)];
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(pause_mu_);
      pause_cv_.wait(lock, [&] { return !paused_; });
    }
    std::optional<Pending> item = queue_.pop();
    if (!item) return;  // closed and drained
    process(engine, std::move(*item));
  }
}

void Server::process(core::FlowEngine& engine, Pending pending) {
  // Shared for the request's whole life: swap_backend's exclusive
  // acquisition therefore means "no request is touching the old backend",
  // without any pause/unpause dance on the dispatchers.
  std::shared_lock<std::shared_mutex> backend_lock(backend_mu_);
  obs::Span span("serve.request");
  span.attr("id", static_cast<double>(pending.id));
  const Clock::time_point dispatched = Clock::now();

  ServeResponse response;
  response.request_id = pending.id;
  response.queue_seconds = seconds_since(pending.submitted, dispatched);

  // The dispatcher's survival guarantee: whatever the request body throws,
  // the promise is fulfilled exactly once (here or with the computed
  // response) and the loop keeps draining. Before this catch existed, an
  // exception out of engine.run() unwound through the dispatcher thread and
  // took the whole process down via std::terminate, with every other
  // in-flight ticket's future left broken.
  try {
    compute(engine, pending, response, span);
  } catch (const std::exception& e) {
    response.status = ServeStatus::kFailed;
    if (const auto* tagged = dynamic_cast<const FlowException*>(&e))
      response.error = tagged->error();
    else
      response.error = {FlowStage::kUnknown, e.what()};
    record_error(response.error, span);
  } catch (...) {
    response.status = ServeStatus::kFailed;
    response.error = {FlowStage::kUnknown, "non-standard exception"};
    record_error(response.error, span);
  }
  // Training-data capture (capture.h): fresh, non-degraded completions
  // only. Capture is telemetry — a throwing hook costs a log line, never
  // the request.
  if (config_.capture && response.status == ServeStatus::kOk &&
      !response.degraded) {
    try {
      config_.capture->on_result(pending.request.layout,
                                 response.result.chosen,
                                 response.result.ilt.report.score());
    } catch (const std::exception& e) {
      log_warn("serve: capture hook failed: ", e.what());
    } catch (...) {
      log_warn("serve: capture hook failed: non-standard exception");
    }
  }
  finish(pending, std::move(response), dispatched);
}

void Server::compute(core::FlowEngine& engine, Pending& pending,
                     ServeResponse& response, obs::Span& span) {
  runtime::CancellationToken token = pending.cancel->token();
  if (pending.deadline != Clock::time_point::max())
    token = token.with_deadline(pending.deadline);

  const std::uint64_t key =
      result_cache_key(config_fp_.load(), pending.request.layout);
  response.cache_key = key;

  // A request dead on arrival (cancelled ticket, expired deadline) never
  // touches the engine.
  if (token.cancelled()) {
    response.status = pending.cancel->cancelled() ? ServeStatus::kCancelled
                                                  : ServeStatus::kTimeout;
    return;
  }

  // A broken cache degrades to a miss: the flow below recomputes, so a
  // cache fault costs latency, never the request (it is still counted
  // against the cache stage).
  try {
    fail::maybe_fail("serve.cache", FlowStage::kCache);
    if (std::optional<CachedResult> hit = result_cache_.get(key)) {
      response.status = ServeStatus::kCached;
      response.result = unpack_result(std::move(*hit));
      span.attr("cached", 1.0);
      return;
    }
  } catch (const std::exception& e) {
    record_error({FlowStage::kCache, e.what()}, span);
  }

  double backoff_ms = config_.retry.initial_backoff_ms;
  for (int attempt = 1;; ++attempt) {
    response.attempts = attempt;
    core::LdmoResult result = engine.run(pending.request.layout, token);
    if (result.cancelled) {
      response.status = pending.cancel->cancelled() ? ServeStatus::kCancelled
                                                    : ServeStatus::kTimeout;
      return;
    }
    if (result.failed) {
      record_error(result.error, span);
      if (attempt >= config_.retry.max_attempts || token.cancelled()) {
        response.status = ServeStatus::kFailed;
        response.error = std::move(result.error);
        return;
      }
      retry_count_.fetch_add(1);
      obs::counter("serve.retries").inc();
      span.attr("retries", static_cast<double>(attempt));
      // Back off before retrying, but never past the deadline: sleep the
      // smaller of the backoff and the time remaining, then let the next
      // engine.run observe the (possibly fired) token.
      auto wait = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(backoff_ms / 1000.0));
      if (pending.deadline != Clock::time_point::max()) {
        const Clock::time_point now = Clock::now();
        if (pending.deadline > now)
          wait = std::min(wait, pending.deadline - now);
        else
          wait = Clock::duration::zero();
      }
      if (wait > Clock::duration::zero()) std::this_thread::sleep_for(wait);
      backoff_ms *= config_.retry.backoff_multiplier;
      continue;
    }
    response.degraded = result.degraded;
    if (result.degraded) {
      degraded_count_.fetch_add(1);
      obs::counter("serve.degraded").inc();
      span.attr("degraded", 1.0);
    }
    response.status = ServeStatus::kOk;
    // Degraded results are kept out of the cache: once the predictor
    // recovers, the same layout should get its CNN-ranked masks rather
    // than a cached heuristic fallback.
    if (!result.degraded) {
      try {
        fail::maybe_fail("serve.cache", FlowStage::kCache);
        result_cache_.put(key, pack_result(result));
      } catch (const std::exception& e) {
        record_error({FlowStage::kCache, e.what()}, span);
      }
    }
    response.result = std::move(result);
    return;
  }
}

void Server::record_error(const FlowError& error, obs::Span& span) {
  error_counts_[static_cast<std::size_t>(error.stage)].fetch_add(1);
  obs::counter(std::string("serve.errors.") + stage_name(error.stage)).inc();
  span.attr("error_stage", stage_name(error.stage));
  span.attr("error", error.message);
  log_warn("serve: request error in stage ", stage_name(error.stage), ": ",
           error.message);
}

void Server::finish(Pending& pending, ServeResponse response,
                    Clock::time_point dispatched) {
  const Clock::time_point done = Clock::now();
  response.service_seconds = seconds_since(dispatched, done);
  response.total_seconds = seconds_since(pending.submitted, done);
  response.completion_sequence = completion_seq_.fetch_add(1) + 1;
  status_counts_[static_cast<std::size_t>(response.status)].fetch_add(1);
  status_counter(response.status).inc();
  if (response.ok()) latency_histogram().observe(response.total_seconds);

  obs::FlightEvent event;
  event.id = response.request_id;
  event.queue_seconds = response.queue_seconds;
  event.total_seconds = response.total_seconds;
  event.attempts = response.attempts;
  event.degraded = response.degraded;
  event.set_status(status_name(response.status));
  if (response.status == ServeStatus::kFailed) {
    event.set_stage(stage_name(response.error.stage));
    event.set_error(response.error.message);
  }
  flight_recorder_.record(event);
  if (response.status == ServeStatus::kFailed)
    dump_flight_recorder("failed response", /*rate_limited=*/true);

  pending.promise.set_value(std::move(response));
}

void Server::dump_flight_recorder(const char* reason, bool rate_limited) {
  if (config_.flight.dump_path.empty()) return;
  if (rate_limited) {
    const long long now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - started_)
            .count();
    long long last = last_flight_dump_ms_.load();
    if (now_ms - last < 1000 ||
        !last_flight_dump_ms_.compare_exchange_strong(last, now_ms))
      return;
  }
  std::ofstream out(config_.flight.dump_path,
                    std::ios::binary | std::ios::trunc);
  if (!out) {
    log_warn("serve: cannot write flight recorder dump to ",
             config_.flight.dump_path);
    return;
  }
  out << flight_recorder_.to_json() << '\n';
  log_info("serve: flight recorder dumped to ", config_.flight.dump_path,
           " (", reason, ")");
}

bool Server::healthy(std::string* detail) const {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) {
      if (detail) *detail = "unhealthy: shut down";
      return false;
    }
  }
  if (!window_) {
    if (detail) *detail = "ok (no window sampler; liveness only)";
    return true;
  }
  long long terminal = 0;
  for (int s = 0; s < kServeStatusCount; ++s)
    terminal += window_->counter_delta(
        std::string("serve.requests.") +
        status_name(static_cast<ServeStatus>(s)));
  const long long failed =
      window_->counter_delta("serve.requests.failed");
  const double ratio =
      terminal > 0
          ? static_cast<double>(failed) / static_cast<double>(terminal)
          : 0.0;
  char line[128];
  std::snprintf(line, sizeof line,
                "failed %lld of %lld terminal responses in the last %.1fs "
                "(ratio %.2f, threshold %.2f)",
                failed, terminal, window_->window_seconds(), ratio,
                config_.admin.unhealthy_failed_ratio);
  const bool ok =
      failed == 0 || ratio < config_.admin.unhealthy_failed_ratio;
  if (detail) *detail = std::string(ok ? "ok: " : "unhealthy: ") + line;
  return ok;
}

bool Server::ready(std::string* detail) const {
  if (queue_.closed()) {
    if (detail) *detail = "not ready: admission closed";
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    if (paused_) {
      if (detail) *detail = "not ready: dispatchers parked (start_paused)";
      return false;
    }
  }
  if (detail)
    *detail = "ready: queue depth " + std::to_string(queue_.depth()) + "/" +
              std::to_string(queue_.capacity());
  return true;
}

obs::RunReport Server::report() const {
  obs::RunReport report("ldmo-serve");
  report.meta("predictor", predictor_name());

  // Latency quantiles come from the serve.latency.seconds histogram (the
  // registry is process-wide, so with several servers in one process this
  // aggregates across them, like every other serve.* metric). Copied by
  // value: the section lambda renders after this snapshot dies.
  obs::HistogramSample latency;
  {
    const obs::MetricsSnapshot metrics_now = obs::registry().snapshot();
    if (const obs::HistogramSample* h =
            metrics_now.find_histogram(kLatencyHistogram))
      latency = *h;
  }

  struct StatusRow {
    const char* name;
    long long count;
  };
  std::vector<StatusRow> rows;
  for (std::size_t s = 0; s < status_counts_.size(); ++s)
    rows.push_back({status_name(static_cast<ServeStatus>(s)),
                    status_counts_[s].load()});
  long long completed = 0;
  for (const StatusRow& row : rows) completed += row.count;
  const double elapsed = seconds_since(started_, Clock::now());

  std::vector<StatusRow> error_rows;
  for (std::size_t s = 0; s < error_counts_.size(); ++s)
    error_rows.push_back({stage_name(static_cast<FlowStage>(s)),
                          error_counts_[s].load()});
  const long long retries = retry_count_.load();
  const long long degraded = degraded_count_.load();

  const std::size_t queue_depth_now = queue_.depth();
  const std::size_t queue_capacity = queue_.capacity();
  const long long cache_hits = result_cache_.hits();
  const long long cache_misses = result_cache_.misses();
  const std::size_t cache_entries = result_cache_.entries();
  const std::size_t cache_bytes = result_cache_.bytes();

  report.section("serve", [=](obs::JsonWriter& w) {
    w.begin_object();
    w.key("requests");
    w.begin_object();
    for (const StatusRow& row : rows) w.kv(row.name, row.count);
    w.kv("completed", completed);
    w.end_object();
    w.key("latency_seconds");
    w.begin_object();
    w.kv("count", latency.count);
    w.kv("p50", latency.quantile(0.50));
    w.kv("p95", latency.quantile(0.95));
    w.kv("p99", latency.quantile(0.99));
    w.end_object();
    w.kv("elapsed_seconds", elapsed);
    w.kv("throughput_rps",
         elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0);
    w.key("queue");
    w.begin_object();
    w.kv("depth", static_cast<long long>(queue_depth_now));
    w.kv("capacity", static_cast<long long>(queue_capacity));
    w.end_object();
    w.key("result_cache");
    w.begin_object();
    w.kv("hits", cache_hits);
    w.kv("misses", cache_misses);
    w.kv("entries", static_cast<long long>(cache_entries));
    w.kv("bytes", static_cast<long long>(cache_bytes));
    w.end_object();
    w.key("errors");
    w.begin_object();
    w.key("by_stage");
    w.begin_object();
    for (const StatusRow& row : error_rows) w.kv(row.name, row.count);
    w.end_object();
    w.kv("retries", retries);
    w.kv("degraded", degraded);
    w.end_object();
    w.end_object();
  });

  if (window_) {
    // Rolling SLO view: rates and quantiles cover only the sliding window,
    // plus per-interval timelines for queue depth and cache hits.
    struct WindowRow {
      double t = 0.0;
      double queue_depth = 0.0;
      long long requests = 0;
      long long cache_hits = 0;
    };
    std::vector<WindowRow> intervals;
    for (const obs::IntervalSample& s : window_->timeline()) {
      WindowRow row;
      row.t = s.t;
      if (const obs::GaugeSample* g =
              [&]() -> const obs::GaugeSample* {
            for (const obs::GaugeSample& gauge : s.delta.gauges)
              if (gauge.name == "serve.queue.depth") return &gauge;
            return nullptr;
          }())
        row.queue_depth = g->value;
      for (const obs::CounterDelta& c : s.delta.counters) {
        if (c.name.rfind("serve.requests.", 0) == 0 &&
            c.name != "serve.requests.submitted")
          row.requests += c.delta;
        if (c.name == "serve.cache.hits") row.cache_hits = c.delta;
      }
      intervals.push_back(row);
    }
    const double window_seconds = window_->window_seconds();
    const double request_rate =
        window_->counter_rate_prefix("serve.requests.") -
        window_->counter_rate("serve.requests.submitted");
    const double error_rate = window_->counter_rate_prefix("serve.errors.");
    const double wp50 = window_->quantile(kLatencyHistogram, 0.50);
    const double wp95 = window_->quantile(kLatencyHistogram, 0.95);
    const double wp99 = window_->quantile(kLatencyHistogram, 0.99);

    report.section("window", [=](obs::JsonWriter& w) {
      w.begin_object();
      w.kv("seconds", window_seconds);
      w.kv("request_rate", request_rate);
      w.kv("error_rate", error_rate);
      w.key("latency_seconds");
      w.begin_object();
      w.kv("p50", wp50);
      w.kv("p95", wp95);
      w.kv("p99", wp99);
      w.end_object();
      w.key("timeline");
      w.begin_array();
      for (const WindowRow& row : intervals) {
        w.begin_object();
        w.kv("t", row.t);
        w.kv("queue_depth", row.queue_depth);
        w.kv("requests", row.requests);
        w.kv("cache_hits", row.cache_hits);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    });
  }
  return report;
}

}  // namespace ldmo::serve

#include <algorithm>
#include <cmath>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "common/timer.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "opc/ilt.h"
#include "serve/server.h"
#include "workloads.h"

namespace ldmo::perfbench {

namespace {

// Closed-loop clients: the callers are tiling drivers that each wait for
// their reply before sending the next clip.
constexpr int kClients = 4;
// Every kNewClipEvery-th request brings a clip never requested before; the
// rest repeat one. A fixed schedule rather than a coin flip, so the share
// of new clips is exactly 1/4 over any run length and any seed.
constexpr std::uint64_t kNewClipEvery = 4;
// A repeat asks for the clip of popularity rank r with weight 1/r^kZipfAlpha,
// over every clip requested so far, ranked in order of first request (with
// a fixed catalogue the most popular clips tend to be requested first).
// This Zipf-like law and its exponent come from web-proxy traces (Breslau
// et al., "Web Caching and Zipf-like Distributions: Evidence and
// Implications", INFOCOM 1999, which measured alpha 0.64-0.83); no trace of
// LDMO or tiling-driver requests is public, so for this traffic the law is
// an unverified assumption.
constexpr double kZipfAlpha = 0.8;
// Fewest requests an end-to-end run makes, however short --seconds is.
constexpr std::size_t kMinRequests = 40;
// Passes over the request prefix of an end-to-end run.
constexpr int kRounds = 3;
// Warm-up clips come from their own fixed stream, so set-up does the same
// work for every seed and its cache entries are never hit by the
// measured requests.
constexpr std::uint64_t kWarmupSeed = 0x57A27ull;
constexpr std::size_t kLayerClips = 4;

/// The seeded request sequence: request i asks for clip next() (clips are
/// numbered in order of first request).
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed) : rng_(seed ^ 0x5EEDC11Bull) {}

  std::uint64_t next() {
    if (requests_++ % kNewClipEvery == 0) {
      const double rank = static_cast<double>(cumulative_.size() + 1);
      cumulative_.push_back((cumulative_.empty() ? 0.0 : cumulative_.back()) +
                            std::pow(rank, -kZipfAlpha));
      return cumulative_.size() - 1;
    }
    const double u = rng_.uniform() * cumulative_.back();
    const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
    return std::min<std::size_t>(it - cumulative_.begin(),
                                 cumulative_.size() - 1);
  }

 private:
  Rng rng_;
  std::uint64_t requests_ = 0;
  std::vector<double> cumulative_;  ///< prefix sums of clip weights by rank
};

struct Record {
  std::uint64_t clip = 0;
  serve::ServeStatus status = serve::ServeStatus::kOk;
  double latency_s = 0.0;  ///< submit -> future ready, seen by the client
  double queue_s = 0.0;
  double service_s = 0.0;
  StageSplit split;        ///< kOk only
  int candidates = 0;      ///< kOk only
};

/// The first delivery seen for a cache key; every later response for the
/// key must match it byte for byte.
struct Reference {
  std::uint64_t clip = 0;
  Delivery delivery;
};

struct ServeRun {
  std::vector<Record> records;
  std::unordered_map<std::uint64_t, Reference> references;
  std::vector<std::shared_ptr<const layout::Layout>> clips;  ///< by clip id
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  LayerCounters counters;
  long long batch_jobs = 0, batch_flushes = 0;
  long long score_hits = 0, score_misses = 0;
};

std::unique_ptr<serve::Server> make_server() {
  serve::ServeConfig config;  // serve defaults: 2 dispatchers, both caches
  config.engine.litho = litho_64px();
  config.overflow = serve::OverflowPolicy::kBlock;
  return std::make_unique<serve::Server>(config, seeded_cnn());
}

/// One request per dispatcher, concurrently, on clips outside the stream.
void warm_up(serve::Server& server) {
  std::vector<serve::RequestTicket> tickets;
  for (int d = 0; d < server.config().dispatchers; ++d) {
    serve::ServeRequest request;
    request.layout = make_clip(kWarmupSeed, static_cast<std::uint64_t>(d));
    tickets.push_back(server.submit(std::move(request)));
  }
  for (serve::RequestTicket& t : tickets) t.response.get();
}

/// Drives `server` with kClients closed-loop clients over the seeded
/// stream until `done(requests issued, seconds elapsed)` says stop.
template <typename Done>
ServeRun drive(serve::Server& server, const Args& args, Done done,
               RunResult& out) {
  const std::uint64_t seed = args.seed;
  ServeRun run;
  RequestStream stream(seed);
  std::size_t issued = 0;
  std::mutex mu;  // guards stream, issued, run.clips, run.records, run.references

  const LayerCounters counters0 = LayerCounters::read();
  const long long jobs0 = obs::counter("serve.batch.jobs").value();
  const long long flushes0 = obs::counter("serve.batch.flushes").value();
  const long long hits0 = obs::counter("serve.score_cache.hits").value();
  const long long misses0 = obs::counter("serve.score_cache.misses").value();
  const double cpu0 = Timer::process_cpu_seconds();
  const Clock::time_point start = Clock::now();

  const auto client = [&] {
    for (;;) {
      std::uint64_t clip_id = 0;
      std::shared_ptr<const layout::Layout> clip;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (done(issued, seconds_since(start))) return;
        ++issued;
        clip_id = stream.next();
        if (clip_id == run.clips.size())
          run.clips.push_back(std::make_shared<const layout::Layout>(
              make_clip(seed, clip_id)));
        clip = run.clips[clip_id];
      }
      serve::ServeRequest request;
      request.layout = *clip;
      const Clock::time_point t0 = Clock::now();
      serve::RequestTicket ticket = server.submit(std::move(request));
      serve::ServeResponse response = ticket.response.get();
      Record record;
      record.latency_s = seconds_since(t0);
      record.clip = clip_id;
      record.status = response.status;
      record.queue_s = response.queue_seconds;
      record.service_s = response.service_seconds;
      if (response.status == serve::ServeStatus::kOk) {
        record.split = split_stages(response.result, response.service_seconds);
        record.candidates = response.result.candidates_generated;
      }
      // Outside the latency window: the byte-identity check per cache key.
      std::optional<Delivery> delivery;
      if (response.ok()) delivery = Delivery::of(response.result);
      std::lock_guard<std::mutex> lock(mu);
      run.records.push_back(record);
      ++out.attempted;
      if (!delivery) {
        ++out.failed;
        out.fail_check(clip->name + " ended " +
                       serve::status_name(response.status) + ": " +
                       response.error.message);
        continue;
      }
      const auto [it, inserted] = run.references.try_emplace(
          response.cache_key, Reference{clip_id, *delivery});
      if (!inserted && (it->second.clip != clip_id ||
                        !it->second.delivery.same_bytes(*delivery)))
        out.fail_check(clip->name + " (" + serve::status_name(response.status) +
                       ") differs from the first delivery for its cache key");
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();

  run.elapsed_s = seconds_since(start);
  run.cpu_s = Timer::process_cpu_seconds() - cpu0;
  run.counters = LayerCounters::read() - counters0;
  run.batch_jobs = obs::counter("serve.batch.jobs").value() - jobs0;
  run.batch_flushes = obs::counter("serve.batch.flushes").value() - flushes0;
  run.score_hits = obs::counter("serve.score_cache.hits").value() - hits0;
  run.score_misses = obs::counter("serve.score_cache.misses").value() - misses0;
  return run;
}

/// Re-prints every cache key's first delivery (the rest are byte-identical
/// to it).
void check_references(const ServeRun& run, RunResult& out) {
  const litho::LithoSimulator simulator(litho_64px());
  for (const auto& [key, ref] : run.references) {
    const std::string why =
        check_rescore(simulator, *run.clips[ref.clip], ref.delivery);
    if (!why.empty()) out.fail_check(why);
  }
}

/// Submits the quality clips as fresh requests and returns their mean
/// delivered score, checking each delivery.
double quality_score(serve::Server& server, bool smoke, RunResult& out) {
  const litho::LithoSimulator simulator(litho_64px());
  const std::vector<layout::Layout> clips = quality_clips(smoke);
  std::vector<serve::RequestTicket> tickets;
  for (const layout::Layout& clip : clips) {
    serve::ServeRequest request;
    request.layout = clip;
    tickets.push_back(server.submit(std::move(request)));
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < clips.size(); ++i) {
    const serve::ServeResponse response = tickets[i].response.get();
    ++out.attempted;
    if (!response.ok()) {
      ++out.failed;
      out.fail_check(clips[i].name + " ended " +
                     serve::status_name(response.status));
      continue;
    }
    const Delivery delivery = Delivery::of(response.result);
    const std::string why = check_rescore(simulator, clips[i], delivery);
    if (!why.empty()) out.fail_check(why);
    sum += delivery.score;
  }
  return sum / static_cast<double>(clips.size());
}

std::vector<double> latencies(const ServeRun& run, double scale,
                              bool (*keep)(const Record&)) {
  std::vector<double> v;
  for (const Record& r : run.records)
    if (keep(r)) v.push_back(r.latency_s * scale);
  return v;
}

bool is_fresh(const Record& r) { return r.status == serve::ServeStatus::kOk; }
bool is_cached(const Record& r) {
  return r.status == serve::ServeStatus::kCached;
}
bool is_delivered(const Record& r) { return is_fresh(r) || is_cached(r); }

/// Other tenants of a shared host slow whole stretches of a run, by up to
/// 1.5x for several seconds at a time. So the run is split into rounds: the
/// first round serves requests until its share of --seconds is used, each
/// later round serves the same request prefix on a fresh server (set up
/// outside the timed region), and the round with the highest throughput is
/// reported. Every cache key must deliver the same bytes in every round.
void measure_end_to_end(const Args& args, std::unique_ptr<serve::Server> server,
                        std::size_t min_requests, RunResult& out) {
  const int rounds = args.smoke ? 1 : kRounds;
  std::vector<Metric> best;
  std::unordered_map<std::uint64_t, std::uint64_t> digests;  // by cache key
  std::size_t requests = 0;
  for (int round = 0; round < rounds; ++round) {
    if (round > 0) {
      server.reset();
      server = make_server();
      warm_up(*server);
    }
    const ServeRun run = drive(
        *server, args,
        [&](std::size_t issued, double elapsed) {
          return round > 0 ? issued >= requests
                           : elapsed >= args.seconds / rounds &&
                                 issued >= min_requests;
        },
        out);
    if (round == 0) requests = run.records.size();
    check_references(run, out);
    for (const auto& [key, ref] : run.references) {
      const auto [it, inserted] = digests.try_emplace(key, ref.delivery.digest());
      if (!inserted && it->second != ref.delivery.digest())
        out.fail_check(run.clips[ref.clip]->name +
                       ": rounds delivered different masks");
    }

    const std::vector<double> all = latencies(run, 1e3, is_delivered);
    const std::vector<double> fresh = latencies(run, 1e3, is_fresh);
    const long long n = static_cast<long long>(all.size());
    const long long nf = static_cast<long long>(fresh.size());
    const double rate = n / run.elapsed_s;
    if (!best.empty() && rate <= best.front().value) continue;
    best = {{"clips_per_s", rate, "1/s", n},
            {"clip_ms_p50", quantile(all, 0.5), "ms", n},
            {"clip_ms_p90", quantile(all, 0.9), "ms", n},
            {"fresh_ms_p50", quantile(fresh, 0.5), "ms", nf},
            {"fresh_ms_p90", quantile(fresh, 0.9), "ms", nf},
            {"cpu_ms_per_clip", n > 0 ? run.cpu_s * 1e3 / n : 0.0, "ms", n}};
  }
  out.metrics.insert(out.metrics.end(), best.begin(), best.end());
  out.add("mean_score", quality_score(*server, args.smoke, out), "score",
          static_cast<long long>(quality_clips(args.smoke).size()));
}

/// Untraced pass on the set-up server, then a traced pass on a fresh
/// server over the same request prefix; the traced pass gives the serve,
/// stage and counter figures.
void measure_layers_traced(const Args& args,
                           std::unique_ptr<serve::Server> server,
                           std::size_t min_requests, RunResult& out) {
  const ServeRun untraced = drive(
      *server, args,
      [&](std::size_t issued, double elapsed) {
        return elapsed >= args.seconds / 2 && issued >= min_requests;
      },
      out);
  check_references(untraced, out);
  const std::size_t requests = untraced.records.size();
  server.reset();

  server = make_server();
  warm_up(*server);
  obs::set_tracing_enabled(true);
  const ServeRun run = drive(
      *server, args,
      [&](std::size_t issued, double) { return issued >= requests; },
      out);
  obs::set_tracing_enabled(false);
  obs::tracer().clear();
  server.reset();
  check_references(run, out);

  std::vector<StageSplit> splits;
  std::vector<double> queue_ms, service_ms;
  long long candidates = 0;
  std::unordered_map<std::uint64_t, int> fresh_per_clip;
  for (const Record& r : run.records) {
    queue_ms.push_back(r.queue_s * 1e3);
    if (!is_fresh(r)) continue;
    service_ms.push_back(r.service_s * 1e3);
    splits.push_back(r.split);
    candidates += r.candidates;
    ++fresh_per_clip[r.clip];
  }
  const long long n = static_cast<long long>(run.records.size());
  const std::vector<double> cached_us = latencies(run, 1e6, is_cached);
  long long dup_fresh = 0;
  for (const auto& [clip, count] : fresh_per_clip) dup_fresh += count - 1;

  out.add("serve.hit_ratio",
          n > 0 ? static_cast<double>(cached_us.size()) / n : 0.0, "ratio", n);
  out.add("serve.dup_fresh", static_cast<double>(dup_fresh), "count",
          static_cast<long long>(fresh_per_clip.size()));
  out.add("serve.queue_ms_p50", quantile(queue_ms, 0.5), "ms", n);
  out.add("serve.service_ms_p50", quantile(service_ms, 0.5), "ms",
          static_cast<long long>(service_ms.size()));
  out.add("serve.cached_us_p50", quantile(cached_us, 0.5), "us",
          static_cast<long long>(cached_us.size()));
  out.add("serve.cached_us_p90", quantile(cached_us, 0.9), "us",
          static_cast<long long>(cached_us.size()));
  out.add("serve.batch_jobs_per_flush",
          run.batch_flushes > 0
              ? static_cast<double>(run.batch_jobs) / run.batch_flushes
              : 0.0,
          "count", run.batch_flushes);
  const long long lookups = run.score_hits + run.score_misses;
  out.add("serve.score_cache_hit_ratio",
          lookups > 0 ? static_cast<double>(run.score_hits) / lookups : 0.0,
          "ratio", lookups);

  report_stages(splits, out);
  report_counters(run.counters, static_cast<long long>(splits.size()),
                  candidates, run.cpu_s, run.elapsed_s, out);
  out.add("obs.trace_overhead_share",
          untraced.elapsed_s > 0.0 ? run.elapsed_s / untraced.elapsed_s - 1.0
                                   : 0.0,
          "ratio", static_cast<long long>(requests));

  // Per-layer timings at the server's model on the stream's first clips.
  const litho::LithoSimulator simulator(litho_64px());
  const opc::IltEngine engine(simulator);
  const std::unique_ptr<core::CnnPredictor> predictor = seeded_cnn();
  const mpl::GenerationConfig generation;
  std::vector<layout::Layout> layer_clips;
  std::vector<core::LdmoResult> layer_results;
  for (const auto& [key, ref] : run.references) {
    if (ref.clip >= kLayerClips) continue;
    core::LdmoResult result;
    result.chosen = ref.delivery.chosen;
    result.ilt.mask1 = ref.delivery.mask1;
    result.ilt.mask2 = ref.delivery.mask2;
    result.ilt.report = simulator.evaluate(
        simulator.print(ref.delivery.mask1, ref.delivery.mask2),
        *run.clips[ref.clip]);
    layer_clips.push_back(*run.clips[ref.clip]);
    layer_results.push_back(std::move(result));
  }
  measure_layers({simulator, engine, *predictor, generation, layer_clips,
                  layer_results, args.smoke},
                 out);
}

}  // namespace

RunResult run_serve(const Args& args) {
  RunResult out;
  std::unique_ptr<serve::Server> server = make_server();
  warm_up(*server);
  const double setup_s = seconds_since(args.process_start);
  const std::size_t min_requests = args.smoke ? 8 : kMinRequests;
  if (args.trace) {
    measure_layers_traced(args, std::move(server), min_requests, out);
    return out;
  }
  out.add("setup_s", setup_s, "s", 1);
  if (!args.setup_only)
    measure_end_to_end(args, std::move(server), min_requests, out);
  return out;
}

}  // namespace ldmo::perfbench

// Serving-layer load experiment: cold vs warm-cache throughput.
//
// Three closed-loop passes over the same request mix (N requests drawn
// round-robin from K unique layouts, C concurrent clients):
//
//   cold          fresh server, caches on
//   warm          SAME server, second pass — every layout now hits the
//                 result cache (the ISSUE-4 acceptance: warm >= 5x cold)
//   cold-nocache  fresh server, caches off (steady-state compute floor)
//
// Then the telemetry-overhead drill (ISSUE-6 acceptance: a 1 Hz /metrics
// scrape loop changes warm throughput by <2%): two fixed-duration warm
// passes against freshly warmed servers — one without an admin endpoint,
// one with the endpoint up and a client scraping /metrics once per second
// — redirect to bench/reports/telemetry_scrape.txt.
//
// Finally the cluster scaling drill (ISSUE-7): cold throughput of a
// loopback cluster behind the consistent-hash router, 1 worker vs 2
// workers over all-distinct layouts. The >=1.25x scaling acceptance only
// gates on machines with >=4 hardware cores — two workers cannot compute
// in parallel on a single-core box, so there the ratio is informational.
//
// Output: one table row per pass (throughput, p50/p95/p99, per-status
// counts, cache hits) on stdout — redirect to bench/reports/serve_*.txt —
// plus bench_serve_report.json with the serve.cache.* / serve.batch.* /
// queue-depth metrics of the final pass.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "kernels/kernels.h"
#include "layout/generator.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/router.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "runtime/thread_pool.h"
#include "serve/admin.h"
#include "serve/server.h"

namespace {

using namespace ldmo;

constexpr int kRequests = 24;
constexpr int kUnique = 6;
constexpr int kClients = 6;
constexpr int kDispatchers = 3;

/// Serving-tier lithography model: 32 px at 32nm covers the generator's
/// 1024nm clip at interactive latency (the experiment-grade 128-px model
/// is for the paper-reproduction benches, not load tests).
litho::LithoConfig serve_litho() {
  litho::LithoConfig cfg;
  cfg.grid_size = 32;
  cfg.pixel_nm = 32.0;
  return cfg;
}

struct PassStats {
  std::string name;
  double seconds = 0.0;
  double throughput = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  long long ok = 0, cached = 0;
  long long cache_hits = 0;
};

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::size_t index = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[std::min(index - 1, sorted.size() - 1)];
}

/// One closed-loop pass of the standard request mix against `server`.
PassStats run_pass(serve::Server& server, const std::string& name,
                   const std::vector<layout::Layout>& pool) {
  const long long ok_before =
      server.status_count(serve::ServeStatus::kOk);
  const long long cached_before =
      server.status_count(serve::ServeStatus::kCached);

  std::atomic<int> next{0};
  std::mutex mu;
  std::vector<double> latencies;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= kRequests) return;
        serve::ServeRequest request;
        request.layout = pool[static_cast<std::size_t>(i % kUnique)];
        serve::ServeResponse response =
            server.submit(std::move(request)).response.get();
        if (response.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          latencies.push_back(response.total_seconds);
        }
      }
    });
  for (std::thread& t : clients) t.join();

  PassStats stats;
  stats.name = name;
  stats.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  stats.throughput = static_cast<double>(kRequests) / stats.seconds;
  std::sort(latencies.begin(), latencies.end());
  stats.p50 = percentile(latencies, 0.50);
  stats.p95 = percentile(latencies, 0.95);
  stats.p99 = percentile(latencies, 0.99);
  stats.ok = server.status_count(serve::ServeStatus::kOk) - ok_before;
  stats.cached =
      server.status_count(serve::ServeStatus::kCached) - cached_before;
  return stats;
}

/// Fixed-duration closed-loop pass: kClients threads hammer the (already
/// warmed) server for `seconds`, round-robin over the pool. Returns the
/// completed-request throughput. Used by the telemetry-overhead drill,
/// where a fixed wall-clock budget makes the with/without-scrape passes
/// directly comparable.
double run_timed(serve::Server& server, const std::vector<layout::Layout>& pool,
                 double seconds) {
  std::atomic<long long> completed{0};
  std::atomic<int> next{0};
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&] {
      while (std::chrono::steady_clock::now() < deadline) {
        const int i = next.fetch_add(1);
        serve::ServeRequest request;
        request.layout = pool[static_cast<std::size_t>(i % kUnique)];
        serve::ServeResponse response =
            server.submit(std::move(request)).response.get();
        if (response.ok()) completed.fetch_add(1);
      }
    });
  for (std::thread& t : clients) t.join();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return static_cast<double>(completed.load()) / elapsed;
}

serve::ServeConfig make_config(bool cache) {
  serve::ServeConfig cfg;
  cfg.engine.litho = serve_litho();
  cfg.dispatchers = kDispatchers;
  cfg.queue_capacity = kRequests;
  cfg.overflow = serve::OverflowPolicy::kBlock;
  cfg.result_cache.enabled = cache;
  cfg.score_cache.enabled = cache;
  return cfg;
}

/// Cold throughput of an n-worker loopback cluster behind the
/// consistent-hash router: every request is a distinct layout (seeded from
/// `seed_base`), so nothing hits a result cache and the measurement is the
/// compute path fanned out over the shards. kClients threads each drive
/// their own wire connection to the router.
double cluster_cold_rps(int n_workers, std::uint64_t seed_base) {
  layout::LayoutGenerator generator;
  std::vector<layout::Layout> pool;
  pool.reserve(kRequests);
  for (int k = 0; k < kRequests; ++k)
    pool.push_back(
        generator.generate(seed_base + static_cast<std::uint64_t>(k)));

  std::vector<std::unique_ptr<net::ServeDaemon>> workers;
  net::RouterConfig router_cfg;
  for (int w = 0; w < n_workers; ++w) {
    net::DaemonConfig daemon_cfg;
    daemon_cfg.serve = make_config(/*cache=*/true);
    workers.push_back(std::make_unique<net::ServeDaemon>(daemon_cfg));
    router_cfg.worker_ports.push_back(workers.back()->port());
  }
  net::Router router(router_cfg);

  std::atomic<int> next{0};
  std::atomic<long long> completed{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&] {
      net::ClientConfig client_cfg;
      client_cfg.port = router.port();
      net::Client client(client_cfg);
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= kRequests) return;
        serve::ServeRequest request;
        request.layout = pool[static_cast<std::size_t>(i)];
        if (client.submit(request).ok()) completed.fetch_add(1);
      }
    });
  for (std::thread& t : clients) t.join();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  router.stop();
  for (auto& worker : workers) worker->stop();
  return static_cast<double>(completed.load()) / elapsed;
}

void print_row(const PassStats& s) {
  std::printf("%-13s %8.2f req/s  p50 %9.3fms  p95 %9.3fms  p99 %9.3fms  "
              "ok %3lld  cached %3lld\n",
              s.name.c_str(), s.throughput, 1e3 * s.p50, 1e3 * s.p95,
              1e3 * s.p99, s.ok, s.cached);
}

}  // namespace

int main(int argc, char** argv) {
  runtime::apply_threads_flag(argc, argv);
  kernels::apply_backend_flag(argc, argv);
  bench::BenchReport report("bench_serve");
  report.meta("requests", std::to_string(kRequests));
  report.meta("unique_layouts", std::to_string(kUnique));
  report.meta("clients", std::to_string(kClients));
  report.meta("dispatchers", std::to_string(kDispatchers));

  layout::LayoutGenerator generator;
  std::vector<layout::Layout> pool;
  pool.reserve(kUnique);
  for (int k = 0; k < kUnique; ++k)
    pool.push_back(generator.generate(9000 + static_cast<std::uint64_t>(k)));

  std::printf("bench_serve: %d requests (%d unique layouts), %d clients, "
              "%d dispatchers\n\n",
              kRequests, kUnique, kClients, kDispatchers);

  std::vector<PassStats> rows;
  {
    // Cold then warm against the SAME server: pass 2 re-requests the same
    // layouts, so the result cache answers everything.
    serve::Server server(make_config(/*cache=*/true));
    rows.push_back(run_pass(server, "cold", pool));
    print_row(rows.back());
    rows.push_back(run_pass(server, "warm", pool));
    rows.back().cache_hits =
        obs::counter("serve.cache.hits").value();
    print_row(rows.back());
    server.shutdown();
  }
  {
    serve::Server server(make_config(/*cache=*/false));
    rows.push_back(run_pass(server, "cold-nocache", pool));
    print_row(rows.back());
    server.shutdown();
  }

  // Telemetry-overhead drill: warm throughput with no admin endpoint vs
  // with the admin endpoint up and a 1 Hz /metrics scrape loop running.
  // Single timed passes are too noisy to resolve a ~1% effect (run-to-run
  // variance on a loaded box is several percent), so the two
  // configurations run as interleaved trials (A B A B ...) against
  // long-lived warmed servers, and the medians are compared.
  constexpr double kTimedSeconds = 2.0;
  constexpr int kTrials = 5;
  std::vector<double> base_trials, scrape_trials;
  long long scrapes = 0;
  {
    serve::Server base_server(make_config(/*cache=*/true));
    serve::ServeConfig cfg = make_config(/*cache=*/true);
    cfg.admin.enabled = true;  // port 0: kernel-assigned ephemeral port
    serve::Server scrape_server(cfg);
    run_pass(base_server, "warmup", pool);  // fill result caches (untimed)
    run_pass(scrape_server, "warmup", pool);

    std::atomic<bool> stop{false};
    std::thread scraper([&] {
      while (!stop.load()) {
        serve::HttpResponse r =
            serve::http_get(scrape_server.admin_port(), "/metrics");
        if (r.status == 200) ++scrapes;
        for (int i = 0; i < 10 && !stop.load(); ++i)
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
    for (int t = 0; t < kTrials; ++t) {
      base_trials.push_back(run_timed(base_server, pool, kTimedSeconds));
      scrape_trials.push_back(run_timed(scrape_server, pool, kTimedSeconds));
    }
    stop.store(true);
    scraper.join();
    scrape_server.shutdown();
    base_server.shutdown();
  }
  std::sort(base_trials.begin(), base_trials.end());
  std::sort(scrape_trials.begin(), scrape_trials.end());
  const double base_rps = base_trials[kTrials / 2];
  const double scrape_rps = scrape_trials[kTrials / 2];
  const double delta_pct = (scrape_rps - base_rps) / base_rps * 100.0;
  std::printf("\ntelemetry overhead (median of %d interleaved %.0fs warm "
              "passes each):\n", kTrials, kTimedSeconds);
  std::printf("  warm-noadmin    %10.2f req/s  (min %.0f  max %.0f)\n",
              base_rps, base_trials.front(), base_trials.back());
  std::printf("  warm-scrape-1hz %10.2f req/s  (min %.0f  max %.0f, "
              "%lld scrapes)\n",
              scrape_rps, scrape_trials.front(), scrape_trials.back(),
              scrapes);
  std::printf("  delta: %+.2f%% (acceptance: |delta| < 2%%)\n", delta_pct);
  report.meta("scrape_overhead_pct", std::to_string(delta_pct));

  // Cluster scaling drill (ISSUE-7): cold throughput through the
  // consistent-hash router with 1 worker vs 2 workers, all-distinct
  // layouts so every request pays the compute path. Near-linear scaling
  // needs genuine parallel headroom — two workers' dispatcher pools only
  // run concurrently when the machine has cores for them — so the >=1.25x
  // acceptance gates only on sufficiently parallel hardware; on smaller
  // boxes the ratio is reported without judging it.
  const unsigned cores = std::thread::hardware_concurrency();
  const bool gate_scaling = cores >= 4;
  const double rps1 = cluster_cold_rps(1, /*seed_base=*/41000);
  const double rps2 = cluster_cold_rps(2, /*seed_base=*/42000);
  const double scaling = rps2 / rps1;
  std::printf("\ncluster cold throughput via router (%d distinct layouts, "
              "%d clients):\n", kRequests, kClients);
  std::printf("  1 worker  %8.2f req/s\n", rps1);
  std::printf("  2 workers %8.2f req/s\n", rps2);
  std::printf("  scaling: %.2fx (%s: >= 1.25x on >=4 cores; this machine "
              "has %u)\n",
              scaling, gate_scaling ? "acceptance" : "not gated", cores);
  report.meta("cluster_scaling_2w", std::to_string(scaling));
  report.meta("hardware_cores", std::to_string(cores));

  const double speedup = rows[1].throughput / rows[0].throughput;
  std::printf("\nwarm/cold throughput ratio: %.1fx (acceptance: >= 5x)\n",
              speedup);
  report.meta("warm_cold_speedup", std::to_string(speedup));
  if (speedup < 5.0) return 1;
  if (gate_scaling && scaling < 1.25) return 1;
  return 0;
}

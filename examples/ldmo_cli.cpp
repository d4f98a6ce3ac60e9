// Command-line front end for the library.
//
//   ldmo_cli generate --seed 42 --out clip.layout
//       Generate a synthetic contact layout and write it as text.
//   ldmo_cli inspect clip.layout
//       Pattern classification, conflict structure, candidate counts.
//   ldmo_cli run clip.layout [--flow ours|suald|balanced|unified]
//            [--report run.json] [--log-level LEVEL]
//       Run a full LDMO flow and report printability (writes PGM images).
//       --report enables span tracing and writes a structured JSON run
//       report (metrics, span tree, per-iteration ILT trace).
//   ldmo_cli validate-report run.json
//       Parse a run report and check its structure; exit 0 iff valid.
//   ldmo_cli warmstart-harvest --out corpus.bin [--clips N]
//       Replay the flow over generated clips and append (target,
//       decomposition, optimized-mask) training triples to a corpus.
//   ldmo_cli warmstart-train --corpus corpus.bin --out model.weights
//       Train the MaskNet warm-start model on a harvested corpus.
//   ldmo_cli run clip.layout --warm-start model.weights
//       Seed ILT from the learned model at a halved iteration budget.
//
// All subcommands use the quick 64-pixel lithography model so they respond
// in seconds; the benches use the experiment-grade 128-pixel model.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/file.h"
#include "common/log.h"
#include "common/timer.h"
#include "core/baseline_flows.h"
#include "core/ldmo_flow.h"
#include "core/predictor.h"
#include "flywheel/log.h"
#include "flywheel/sink.h"
#include "flywheel/tuner.h"
#include "kernels/kernels.h"
#include "layout/generator.h"
#include "layout/io.h"
#include "layout/raster.h"
#include "mpl/baselines.h"
#include "mpl/decomposition_generator.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/router.h"
#include "obs/report.h"
#include "runtime/thread_pool.h"
#include "serve/server.h"
#include "warmstart/corpus.h"
#include "warmstart/harvest.h"
#include "warmstart/train.h"
#include "warmstart/warm_start.h"

namespace {

using namespace ldmo;

litho::LithoConfig cli_litho() {
  litho::LithoConfig cfg;
  cfg.grid_size = 64;
  cfg.pixel_nm = 16.0;
  return cfg;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ldmo_cli generate [--seed N] [--out FILE]\n"
               "  ldmo_cli inspect FILE\n"
               "  ldmo_cli run FILE [--flow ours|suald|balanced|unified]\n"
               "                    [--report OUT.json] [--log-level LEVEL]\n"
               "                    [--threads N] [--warm-start WEIGHTS]\n"
               "                    [--warm-iters N] [--warm-width W]\n"
               "  ldmo_cli validate-report FILE.json\n"
               "  ldmo_cli warmstart-harvest [--out CORPUS] [--clips N]\n"
               "                    [--seed0 S] [--sampling]\n"
               "                    [--oversample K] [--threads N]\n"
               "  ldmo_cli warmstart-train [--corpus CORPUS] [--out WEIGHTS]\n"
               "                    [--epochs E] [--batch B] [--width W]\n"
               "                    [--lr RATE] [--threads N]\n"
               "  ldmo_cli serve-bench [--requests N] [--unique K]\n"
               "                    [--clients C] [--dispatchers D]\n"
               "                    [--deadline-ms MS] [--no-cache]\n"
               "                    [--report OUT.json] [--threads N]\n"
               "                    [--inject]\n"
               "                    [--inject-prob P] [--inject-seed S]\n"
               "                    [--admin-port P] [--admin-linger-ms MS]\n"
               "                    [--net-workers W]\n"
               "  ldmo_cli serve [--listen PORT] [--dispatchers D]\n"
               "                    [--grid N] [--pixel NM]\n"
               "                    [--weights FILE] [--snapshot FILE]\n"
               "                    [--warm-start WEIGHTS] [--warm-iters N]\n"
               "                    [--warm-width W]\n"
               "                    [--flywheel LOG] [--flywheel-min-new N]\n"
               "                    [--flywheel-sample K]\n"
               "                    [--flywheel-poll-ms MS]\n"
               "                    [--flywheel-epochs E]\n"
               "                    [--admin-port P] [--threads N]\n"
               "  ldmo_cli route --workers P1,P2,... [--listen PORT]\n"
               "                    [--admin-port P]\n"
               "  ldmo_cli net-submit FILE --port P [--deadline-ms MS]\n"
               "  ldmo_cli net-stats --port P\n"
               "  ldmo_cli swap-weights --port P [--weights FILE]\n"
               "                    [--version N] [--warm-start FILE]\n"
               "  ldmo_cli flywheel-stats --log FILE\n"
               "  ldmo_cli flywheel-train --log FILE --out WEIGHTS\n"
               "                    [--weights INCUMBENT] [--min-new N]\n"
               "                    [--epochs E] [--batch B] [--lr RATE]\n"
               "\n"
               "serve/route run until SIGINT/SIGTERM and print\n"
               "'listening on port N' once bound; --listen 0 (default)\n"
               "picks a free port. serve-bench --net-workers W spins an\n"
               "in-process W-worker cluster behind a consistent-hash\n"
               "router and drives it over the wire protocol (--inject\n"
               "then drops connections mid-frame instead of arming flow\n"
               "faults).\n"
               "LEVEL: debug|info|warn|error|off (also honored from the\n"
               "LDMO_LOG_LEVEL environment variable)\n"
               "--threads: parallelism budget (default: all hardware\n"
               "threads); results are bit-identical for any value\n"
               "--backend: compute kernels (generic|avx2|avx512|neon|\n"
               "auto, default auto; also LDMO_BACKEND env var)\n"
               "--warm-start: load trained MaskNet weights and seed every\n"
               "ILT attempt from the learned P fields at a --warm-iters\n"
               "budget (default 25, half the cold 50); --warm-width must\n"
               "match the trained model's base width (default 8). Only\n"
               "the 'ours' flow and serve consult the model; without the\n"
               "flag the paper-faithful cold init runs unchanged.\n"
               "--flywheel: online-learning loop on the serve daemon —\n"
               "capture completed non-degraded runs to LOG, background\n"
               "fine-tune the predictor CNN on them, and hot-swap the\n"
               "candidate in (blue/green, cache keys retired) only when it\n"
               "beats the incumbent's held-out rank correlation\n"
               "--admin-port: serve live telemetry on 127.0.0.1:P\n"
               "(/metrics /healthz /readyz /varz /trace /flightrecorder;\n"
               "0 picks a free port); --admin-linger-ms keeps the server\n"
               "up after the bench for manual scraping\n"
               "LDMO_LOG_FORMAT=json switches logs to one JSON object\n"
               "per line\n");
  return 2;
}

const char* flag_value(int argc, char** argv, const char* name,
                       const char* fallback) {
  for (int i = 2; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) {
      if (i + 1 >= argc)
        throw std::runtime_error(std::string(name) + " requires a value");
      return argv[i + 1];
    }
  return fallback;
}

bool flag_present(int argc, char** argv, const char* name) {
  for (int i = 2; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

void apply_log_level_flag(int argc, char** argv) {
  const char* level = flag_value(argc, argv, "--log-level", nullptr);
  if (!level) return;
  // parse_log_level falls back silently; parsing against two different
  // fallbacks distinguishes "recognized" from "fell back" without
  // duplicating the level-name table here.
  const LogLevel a = parse_log_level(level, LogLevel::Debug);
  const LogLevel b = parse_log_level(level, LogLevel::Off);
  if (a != b)
    throw std::runtime_error(std::string("unknown log level '") + level +
                             "' (want debug|info|warn|error|off)");
  set_log_level(a);
}

int cmd_generate(int argc, char** argv) {
  const std::uint64_t seed = static_cast<std::uint64_t>(
      std::atoll(flag_value(argc, argv, "--seed", "42")));
  const std::string out = flag_value(argc, argv, "--out", "clip.layout");
  layout::LayoutGenerator gen;
  const layout::Layout l = gen.generate(seed);
  layout::write_layout_text(l, out);
  std::printf("wrote %s: %d patterns in a %lldnm clip\n", out.c_str(),
              l.pattern_count(), static_cast<long long>(l.clip.width()));
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  if (argc < 3) return usage();
  const layout::Layout l = layout::read_layout_text(argv[2]);
  std::printf("%s: %d patterns\n", l.name.c_str(), l.pattern_count());
  const mpl::PatternClassification classes = mpl::classify_patterns(l);
  std::printf("classes: %zu SP, %zu VP, %zu NP\n", classes.sp.size(),
              classes.vp.size(), classes.np.size());
  const mpl::GenerationResult generated = mpl::generate_decompositions(l);
  std::printf("SP MST: %zu edges, %d components\n",
              generated.sp_mst.edges.size(), generated.sp_component_count);
  std::printf("candidates: %zu (Arrs1 %zu x Arrs2 %zu)\n",
              generated.candidates.size(), generated.arrs1_rows,
              generated.arrs2_rows);
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) return usage();
  const layout::Layout l = layout::read_layout_text(argv[2]);
  const std::string flow_name = flag_value(argc, argv, "--flow", "ours");
  const char* report_path = flag_value(argc, argv, "--report", nullptr);
  const char* warm_path = flag_value(argc, argv, "--warm-start", nullptr);
  if (warm_path && flow_name != "ours")
    throw std::runtime_error("--warm-start requires --flow ours");
  if (report_path) {
    obs::set_tracing_enabled(true);
    obs::tracer().clear();
    obs::registry().reset();
  }
  const litho::LithoSimulator simulator(cli_litho());

  GridF mask1, mask2, response;
  litho::PrintabilityReport report;
  double seconds = 0.0;
  int candidates_generated = 0, candidates_tried = 0;
  int iterations_run = 0;
  bool warm_started = false;
  PhaseTimer phase_timing;
  {
    obs::Span cli_span("cli.run");
    cli_span.attr("flow", flow_name);
    cli_span.attr("layout", l.name);
    if (flow_name == "ours") {
      core::LdmoResult r;
      if (warm_path) {
        // Learned warm start: a FlowEngine session owns the stack so the
        // shared MaskNet can be installed once; every speculative ILT
        // attempt is seeded from its prediction and runs at the halved
        // --warm-iters budget instead of the cold 50.
        warmstart::MaskNetConfig net_cfg;
        net_cfg.grid_size = cli_litho().grid_size;
        net_cfg.base_width =
            std::atoi(flag_value(argc, argv, "--warm-width", "8"));
        auto warm = std::make_shared<warmstart::MaskWarmStart>(net_cfg);
        warm->load(warm_path);
        core::FlowEngineConfig engine_cfg;
        engine_cfg.litho = cli_litho();
        engine_cfg.flow.warm_start.enabled = true;
        engine_cfg.flow.warm_start.max_iterations =
            std::atoi(flag_value(argc, argv, "--warm-iters", "25"));
        core::FlowEngine engine(engine_cfg);
        engine.set_warm_start(warm);
        r = engine.run(l);
      } else {
        core::RawPrintPredictor predictor(simulator);
        const core::LdmoConfig config;
        r = core::run_ldmo_flow(opc::IltEngine(simulator, config.ilt),
                                predictor, config, l);
      }
      if (r.failed) {
        // e.g. an LDMO_FAILPOINTS-armed site fired: report the stage
        // instead of writing empty masks.
        std::fprintf(stderr, "run failed in stage %s: %s\n",
                     stage_name(r.error.stage), r.error.message.c_str());
        return 1;
      }
      mask1 = std::move(r.ilt.mask1);
      mask2 = std::move(r.ilt.mask2);
      response = std::move(r.ilt.response);
      report = r.ilt.report;
      seconds = r.total_seconds;
      candidates_generated = r.candidates_generated;
      candidates_tried = r.candidates_tried;
      iterations_run = r.ilt.iterations_run;
      warm_started = r.warm_started;
      phase_timing = r.timing;
    } else if (flow_name == "suald" || flow_name == "balanced") {
      core::TwoStageFlow flow(
          simulator, [&flow_name](const layout::Layout& layout) {
            if (flow_name == "suald")
              return mpl::SpacingUniformityDecomposer().decompose(layout);
            return mpl::BalancedDecomposer().decompose(layout);
          });
      core::BaselineFlowResult r = flow.run(l);
      mask1 = std::move(r.ilt.mask1);
      mask2 = std::move(r.ilt.mask2);
      response = std::move(r.ilt.response);
      report = r.ilt.report;
      seconds = r.total_seconds;
    } else if (flow_name == "unified") {
      core::UnifiedGreedyFlow flow(simulator, {});
      core::BaselineFlowResult r = flow.run(l);
      mask1 = std::move(r.ilt.mask1);
      mask2 = std::move(r.ilt.mask2);
      response = std::move(r.ilt.response);
      report = r.ilt.report;
      seconds = r.total_seconds;
    } else {
      return usage();
    }
  }  // closes cli.run so the report sees a finished root span

  std::printf("flow %-8s: %d EPE violations, %d print violations, "
              "L2 %.1f, score %.1f (%.2fs)\n",
              flow_name.c_str(), report.epe.violation_count,
              report.violations.total(), report.l2, report.score(), seconds);
  if (warm_path)
    std::printf("warm start: %s, %d ILT iterations run\n",
                warm_started ? "seeded" : "cold fallback", iterations_run);
  layout::write_pgm(mask1, "cli_mask1.pgm");
  layout::write_pgm(mask2, "cli_mask2.pgm");
  layout::write_pgm(response, "cli_print.pgm");
  std::printf("wrote cli_mask1.pgm cli_mask2.pgm cli_print.pgm\n");

  if (report_path) {
    runtime::publish_metrics();  // pool gauges into the metrics snapshot
    obs::RunReport run_report("ldmo_cli");
    run_report.meta("flow", flow_name);
    run_report.meta("layout", l.name);
    run_report.meta("layout_file", argv[2]);
    run_report.section("result", [&](obs::JsonWriter& w) {
      w.begin_object();
      w.kv("epe_violations", report.epe.violation_count);
      w.kv("print_violations", report.violations.total());
      w.kv("l2", report.l2);
      w.kv("score", report.score());
      w.kv("seconds", seconds);
      w.kv("candidates_generated", candidates_generated);
      w.kv("candidates_tried", candidates_tried);
      w.kv("ilt_iterations", iterations_run);
      w.kv("warm_started", warm_started);
      w.end_object();
    });
    // Parallelism accounting: the thread budget plus per-phase wall vs
    // process-CPU time (cpu/wall ~ threads on a busy parallel phase).
    run_report.section("runtime", [&](obs::JsonWriter& w) {
      w.begin_object();
      w.kv("threads", runtime::thread_count());
      w.key("phases");
      w.begin_object();
      std::vector<std::string> phases = phase_timing.phases();
      std::sort(phases.begin(), phases.end());
      for (const std::string& phase : phases) {
        w.key(phase);
        w.begin_object();
        w.kv("wall_seconds", phase_timing.get(phase));
        w.kv("cpu_seconds", phase_timing.get_cpu(phase));
        w.end_object();
      }
      w.end_object();
      w.end_object();
    });
    run_report.write(report_path);
    std::printf("wrote run report %s\n", report_path);
  }
  return 0;
}

// Structural validation of a run report: parses the JSON and checks the
// sections the observability layer promises. Used by the CTest smoke test.
int cmd_validate_report(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::vector<std::uint8_t> bytes = common::read_file(argv[2]);

  obs::JsonValue doc;
  try {
    doc = obs::parse_json(std::string(bytes.begin(), bytes.end()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "validate-report: %s\n", e.what());
    return 1;
  }

  auto fail = [&](const char* what) {
    std::fprintf(stderr, "validate-report: %s in %s\n", what, argv[2]);
    return 1;
  };
  if (!doc.is_object()) return fail("top level is not an object");
  const obs::JsonValue* metrics = doc.find("metrics");
  if (!metrics || !metrics->is_object()) return fail("missing metrics object");
  const obs::JsonValue* counters = metrics->find("counters");
  if (!counters || !counters->is_object())
    return fail("missing metrics.counters object");
  const obs::JsonValue* spans = doc.find("spans");
  if (!spans || !spans->is_array()) return fail("missing spans array");
  for (const obs::JsonValue& root : spans->array) {
    if (!root.is_object() || !root.find("name") || !root.find("seconds"))
      return fail("span node missing name/seconds");
  }

  // When the report captured an LDMO flow run, require its phase tree and
  // the per-attempt ILT children with an iteration trace.
  const obs::JsonValue* ldmo_run = nullptr;
  for (const obs::JsonValue& root : spans->array) {
    const obs::JsonValue* children =
        root.is_object() ? root.find("children") : nullptr;
    if (!children) continue;
    for (const obs::JsonValue& child : children->array) {
      const obs::JsonValue* name = child.find("name");
      if (name && name->string == "ldmo.run") ldmo_run = &child;
    }
    const obs::JsonValue* name = root.find("name");
    if (name && name->string == "ldmo.run") ldmo_run = &root;
  }
  if (ldmo_run) {
    const obs::JsonValue* children = ldmo_run->find("children");
    if (!children || !children->is_array())
      return fail("ldmo.run span has no children");
    bool has_generate = false, has_predict = false, has_ilt = false;
    const obs::JsonValue* ilt_phase = nullptr;
    for (const obs::JsonValue& phase : children->array) {
      const obs::JsonValue* name = phase.find("name");
      if (!name) continue;
      if (name->string == "generate") has_generate = true;
      if (name->string == "predict") has_predict = true;
      if (name->string == "ilt") { has_ilt = true; ilt_phase = &phase; }
    }
    if (!has_generate || !has_predict || !has_ilt)
      return fail("ldmo.run span lacks generate/predict/ilt phases");
    const obs::JsonValue* attempts =
        ilt_phase ? ilt_phase->find("children") : nullptr;
    if (!attempts || attempts->array.empty())
      return fail("ilt phase has no per-attempt spans");
    const obs::JsonValue* optimize =
        attempts->array.front().find("children");
    const obs::JsonValue* trace =
        optimize && !optimize->array.empty()
            ? optimize->array.front().find("series")
            : nullptr;
    if (!trace || !trace->find("trace"))
      return fail("ILT attempt has no per-iteration trace");
  }

  std::printf("validate-report: %s ok (%zu top-level spans)\n", argv[2],
              spans->array.size());
  return 0;
}

// Replays the full LDMO flow over generated clips and appends each
// successful (target, decomposition rasters, optimized masks) triple to an
// append-only binary corpus — the supervision the warm-start MaskNet
// trains on. --sampling spends the flow runs on a SIFT/k-medoids-selected
// subset of an oversampled clip pool instead of the first N seeds.
int cmd_warmstart_harvest(int argc, char** argv) {
  const std::string out =
      flag_value(argc, argv, "--out", "warmstart_corpus.bin");
  warmstart::HarvestConfig hcfg;
  hcfg.clip_count = std::atoi(flag_value(argc, argv, "--clips", "32"));
  hcfg.seed0 = static_cast<std::uint64_t>(
      std::atoll(flag_value(argc, argv, "--seed0", "900")));
  hcfg.use_sampling = flag_present(argc, argv, "--sampling");
  hcfg.oversample = std::atoi(flag_value(argc, argv, "--oversample", "4"));
  if (hcfg.clip_count < 1 || hcfg.oversample < 1) return usage();

  core::FlowEngineConfig engine_cfg;
  engine_cfg.litho = cli_litho();
  core::FlowEngine engine(engine_cfg);
  const warmstart::HarvestStats stats =
      warmstart::harvest_corpus(engine, hcfg, out);
  std::printf("warmstart-harvest: %d attempted, %d harvested, %d failed\n",
              stats.attempted, stats.harvested, stats.failed);
  std::printf("corpus %s now holds %zu records (grid %d)\n", out.c_str(),
              warmstart::corpus_record_count(out),
              engine_cfg.litho.grid_size);
  return stats.harvested > 0 ? 0 : 1;
}

// Trains the MaskNet warm-start model on a harvested corpus and writes the
// weights (tmp-then-rename). Prints the per-epoch mask MSE plus the cold
// +/- initial_p baseline the learned init must beat.
int cmd_warmstart_train(int argc, char** argv) {
  const std::string corpus_path =
      flag_value(argc, argv, "--corpus", "warmstart_corpus.bin");
  const std::string out =
      flag_value(argc, argv, "--out", "warmstart.weights");
  warmstart::WarmTrainConfig tcfg;
  tcfg.epochs = std::atoi(flag_value(argc, argv, "--epochs", "12"));
  tcfg.batch_size = std::atoi(flag_value(argc, argv, "--batch", "4"));
  tcfg.adam.learning_rate =
      std::atof(flag_value(argc, argv, "--lr",
                           std::to_string(tcfg.adam.learning_rate).c_str()));
  const int width = std::atoi(flag_value(argc, argv, "--width", "8"));
  if (tcfg.epochs < 1 || tcfg.batch_size < 1 || width < 1) return usage();

  const warmstart::Corpus corpus = warmstart::read_corpus(corpus_path);
  std::printf("warmstart-train: %zu records (grid %d) from %s\n",
              corpus.records.size(), corpus.grid_size, corpus_path.c_str());
  warmstart::MaskNetConfig net_cfg;
  net_cfg.grid_size = corpus.grid_size;
  net_cfg.base_width = width;
  warmstart::MaskWarmStart warm(net_cfg);
  std::printf("MaskNet: base width %d, %zu parameters\n", width,
              warm.net().parameter_count());
  train_masknet(warm.net(), corpus, tcfg,
                [](const warmstart::WarmEpochStats& epoch) {
                  std::printf("  epoch %2d  mask MSE %.6f\n", epoch.epoch,
                              epoch.mean_loss);
                });
  warm.refresh_version();
  warm.save(out);

  const double cold = warmstart::cold_init_loss(corpus, tcfg.theta_m);
  const double learned =
      warmstart::evaluate_masknet(warm.net(), corpus, tcfg.theta_m);
  std::printf("train-set mask MSE: learned %.6f vs cold init %.6f (%s)\n",
              learned, cold, learned < cold ? "better" : "WORSE");
  std::printf("wrote %s (weights v%llu)\n", out.c_str(),
              static_cast<unsigned long long>(warm.version()));
  return 0;
}

// Closed-loop load generator over the serving layer: C client threads
// submit N requests drawn round-robin from K unique layouts, so every
// layout past the first K rounds through the content-addressed result
// cache. Reports per-status counts, throughput and ok/cached latency
// percentiles; --report writes the server's run report (serve.cache.*,
// serve.batch.*, queue depth, percentiles) as JSON.
//
// serve-bench --net-workers W: the same closed-loop load, but through the
// wire protocol — W in-process ServeDaemons behind a consistent-hash
// Router, every request a TCP round trip. With --inject, the armed sites
// are the transport ones (net.frame.read / net.frame.write / net.connect):
// connections drop mid-frame at client, router and worker alike, and the
// drill verdict checks that client retry + router failover still deliver a
// terminal response for every request (requests are content-addressed and
// idempotent, so a resend can never produce a different answer).
int run_net_bench(int requests, int unique, int clients, int dispatchers,
                  double deadline_ms, bool inject, double inject_prob,
                  std::uint64_t inject_seed, int net_workers) {
  serve::ServeConfig scfg;
  scfg.engine.litho = cli_litho();
  scfg.dispatchers = dispatchers;
  scfg.queue_capacity =
      std::max<std::size_t>(64, static_cast<std::size_t>(requests));
  scfg.overflow = serve::OverflowPolicy::kBlock;

  std::vector<std::unique_ptr<net::ServeDaemon>> workers;
  std::vector<int> worker_ports;
  for (int w = 0; w < net_workers; ++w) {
    net::DaemonConfig dcfg;
    dcfg.serve = scfg;
    workers.push_back(std::make_unique<net::ServeDaemon>(dcfg));
    worker_ports.push_back(workers.back()->port());
  }
  net::RouterConfig rcfg;
  rcfg.worker_ports = worker_ports;
  net::Router router(rcfg);

  if (inject) {
    fail::arm("net.frame.read",
              fail::probability(inject_prob, inject_seed));
    fail::arm("net.frame.write",
              fail::probability(inject_prob, inject_seed + 1));
    fail::arm("net.connect",
              fail::probability(inject_prob, inject_seed + 2));
  }

  layout::LayoutGenerator generator;
  std::vector<layout::Layout> pool;
  pool.reserve(static_cast<std::size_t>(unique));
  for (int k = 0; k < unique; ++k)
    pool.push_back(generator.generate(9000 + static_cast<std::uint64_t>(k)));

  std::atomic<int> next{0};
  std::atomic<int> lost{0};
  std::mutex responses_mu;
  std::vector<serve::ServeResponse> responses;
  responses.reserve(static_cast<std::size_t>(requests));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> client_threads;
  client_threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    client_threads.emplace_back([&] {
      // Generous transport retry budget: under injection each attempt can
      // lose its connection at several hops, and the drill's contract is
      // zero lost requests.
      net::Client client(net::ClientConfig{
          .port = router.port(),
          .net_retries = inject ? 5 : 2,
      });
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= requests) return;
        serve::ServeRequest request;
        request.layout = pool[static_cast<std::size_t>(i % unique)];
        request.deadline_seconds = deadline_ms / 1000.0;
        try {
          serve::ServeResponse response = client.submit(request);
          std::lock_guard<std::mutex> lock(responses_mu);
          responses.push_back(std::move(response));
        } catch (const std::exception& e) {
          lost.fetch_add(1);
          std::fprintf(stderr, "net-bench: lost request %d: %s\n", i,
                       e.what());
        }
      }
    });
  for (std::thread& t : client_threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (inject) fail::disarm_all();

  std::printf("serve-bench[net]: %d requests (%d unique), %d clients -> "
              "router -> %d workers x %d dispatchers%s\n",
              requests, unique, clients, net_workers, dispatchers,
              inject ? ", transport fault injection on" : "");
  long long ok = 0, cached = 0, failed = 0;
  for (const serve::ServeResponse& r : responses) {
    if (r.status == serve::ServeStatus::kOk) ++ok;
    if (r.status == serve::ServeStatus::kCached) ++cached;
    if (r.status == serve::ServeStatus::kFailed) ++failed;
  }
  std::printf("  ok %lld  cached %lld  failed %lld  throughput %.2f req/s\n",
              ok, cached, failed,
              static_cast<double>(requests) / elapsed);
  for (int port : worker_ports)
    std::printf("  shard %-5d forwarded %lld  errors %lld\n", port,
                obs::counter("net.router.shard." + std::to_string(port) +
                             ".forwarded")
                    .value(),
                obs::counter("net.router.shard." + std::to_string(port) +
                             ".errors")
                    .value());
  std::printf("  transport: %lld frame errors, %lld client retries, "
              "%lld failovers\n",
              obs::counter("net.frame.errors").value(),
              obs::counter("net.client.retries").value(),
              obs::counter("net.router.failovers").value());
  if (inject)
    for (const char* site :
         {"net.frame.read", "net.frame.write", "net.connect"})
      std::printf("    fired.%-15s %lld\n", site, fail::fire_count(site));
  const bool all_answered =
      lost.load() == 0 &&
      responses.size() == static_cast<std::size_t>(requests);
  std::printf("  drill verdict: %s (%zu/%d responses, %d lost)\n",
              all_answered ? "zero lost requests" : "LOST REQUESTS",
              responses.size(), requests, lost.load());

  router.stop();
  for (auto& worker : workers) worker->stop();
  return all_answered ? 0 : 1;
}

// --inject turns the bench into a fault drill: probability failpoints are
// armed across the stack (generation, scoring, litho exposure, ILT, the
// result cache) and retry is enabled, so the run demonstrates the fault
// ladder end to end — every submitted request still completes, with a mix
// of ok / failed / degraded outcomes and zero aborts or broken futures.
int cmd_serve_bench(int argc, char** argv) {
  const int requests =
      std::atoi(flag_value(argc, argv, "--requests", "24"));
  const int unique = std::atoi(flag_value(argc, argv, "--unique", "6"));
  const int clients = std::atoi(flag_value(argc, argv, "--clients", "4"));
  const int dispatchers =
      std::atoi(flag_value(argc, argv, "--dispatchers", "2"));
  const double deadline_ms =
      std::atof(flag_value(argc, argv, "--deadline-ms", "0"));
  const char* report_path = flag_value(argc, argv, "--report", nullptr);
  const bool inject = flag_present(argc, argv, "--inject");
  const double inject_prob =
      std::atof(flag_value(argc, argv, "--inject-prob", "0.05"));
  const std::uint64_t inject_seed = static_cast<std::uint64_t>(
      std::atoll(flag_value(argc, argv, "--inject-seed", "1234")));
  const char* admin_port = flag_value(argc, argv, "--admin-port", nullptr);
  const int admin_linger_ms =
      std::atoi(flag_value(argc, argv, "--admin-linger-ms", "0"));
  if (requests < 1 || unique < 1 || clients < 1) return usage();
  if (inject && (inject_prob <= 0.0 || inject_prob >= 1.0)) return usage();

  const int net_workers =
      std::atoi(flag_value(argc, argv, "--net-workers", "0"));
  if (net_workers > 0) {
    obs::registry().reset();
    return run_net_bench(requests, unique, clients, dispatchers, deadline_ms,
                         inject, inject_prob, inject_seed, net_workers);
  }

  obs::registry().reset();
  if (report_path) {
    obs::set_tracing_enabled(true);
    obs::tracer().clear();
  }

  serve::ServeConfig cfg;
  cfg.engine.litho = cli_litho();
  cfg.dispatchers = dispatchers;
  cfg.queue_capacity =
      std::max<std::size_t>(64, static_cast<std::size_t>(requests));
  // Closed-loop clients must not lose requests to backpressure.
  cfg.overflow = serve::OverflowPolicy::kBlock;
  const bool cache_on = !flag_present(argc, argv, "--no-cache");
  cfg.result_cache.enabled = cache_on;
  cfg.score_cache.enabled = cache_on;
  if (inject) {
    // Per-evaluation probabilities scaled by how often each site runs per
    // request: litho.expose fires hundreds of times per flow run, so it
    // gets a much smaller chance than the once-per-run sites.
    fail::arm("mpl.generate", fail::probability(inject_prob, inject_seed));
    fail::arm("predictor.score",
              fail::probability(inject_prob, inject_seed + 1));
    fail::arm("opc.ilt.optimize",
              fail::probability(inject_prob, inject_seed + 2));
    fail::arm("litho.expose",
              fail::probability(inject_prob / 100.0, inject_seed + 3));
    fail::arm("serve.cache", fail::probability(inject_prob, inject_seed + 4));
    // One bounded retry absorbs most transient faults.
    cfg.retry.max_attempts = 2;
    cfg.retry.initial_backoff_ms = 1.0;
  }
  if (admin_port) {
    cfg.admin.enabled = true;
    cfg.admin.port = std::atoi(admin_port);
    // Failure postmortems land next to the bench's other artifacts.
    cfg.flight.dump_path = "ldmo_flightrecorder.json";
  }
  serve::Server server(cfg);
  if (admin_port)
    std::printf("admin: http://127.0.0.1:%d/metrics (also /healthz /readyz "
                "/varz /trace /flightrecorder)\n",
                server.admin_port());

  layout::LayoutGenerator generator;
  std::vector<layout::Layout> pool;
  pool.reserve(static_cast<std::size_t>(unique));
  for (int k = 0; k < unique; ++k)
    pool.push_back(generator.generate(9000 + static_cast<std::uint64_t>(k)));

  std::atomic<int> next{0};
  std::mutex responses_mu;
  std::vector<serve::ServeResponse> responses;
  responses.reserve(static_cast<std::size_t>(requests));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    workers.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= requests) return;
        serve::ServeRequest request;
        request.layout = pool[static_cast<std::size_t>(i % unique)];
        request.deadline_seconds = deadline_ms / 1000.0;
        serve::RequestTicket ticket = server.submit(std::move(request));
        serve::ServeResponse response = ticket.response.get();
        std::lock_guard<std::mutex> lock(responses_mu);
        responses.push_back(std::move(response));
      }
    });
  for (std::thread& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::vector<double> latencies;
  for (const serve::ServeResponse& r : responses)
    if (r.ok()) latencies.push_back(r.total_seconds);
  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&](double q) {
    if (latencies.empty()) return 0.0;
    std::size_t index = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(latencies.size()))));
    return latencies[std::min(index - 1, latencies.size() - 1)];
  };

  std::printf("serve-bench: %d requests (%d unique), %d clients, "
              "%d dispatchers, cache %s%s\n",
              requests, unique, clients, dispatchers,
              cache_on ? "on" : "off",
              inject ? ", fault injection on" : "");
  long long terminal = 0;
  for (int s = 0; s < serve::kServeStatusCount; ++s) {
    const serve::ServeStatus status = static_cast<serve::ServeStatus>(s);
    terminal += server.status_count(status);
    std::printf("  %-10s %lld\n", serve::status_name(status),
                server.status_count(status));
  }
  std::printf("  throughput %.2f req/s  p50 %.3fms  p95 %.3fms  "
              "p99 %.3fms\n",
              static_cast<double>(requests) / elapsed, 1e3 * pct(0.50),
              1e3 * pct(0.95), 1e3 * pct(0.99));
  if (inject) {
    std::printf("  fault drill: %lld retries, %lld degraded\n",
                server.retry_count(), server.degraded_count());
    for (int s = 0; s < kFlowStageCount; ++s) {
      const FlowStage stage = static_cast<FlowStage>(s);
      if (server.error_count(stage) > 0)
        std::printf("    errors.%-9s %lld\n", stage_name(stage),
                    server.error_count(stage));
    }
    for (const std::string& site : fail::armed_sites())
      std::printf("    fired.%-12s %lld\n", site.c_str(),
                  fail::fire_count(site));
    std::printf("  drill verdict: %s (%zu/%d responses, %lld terminal)\n",
                responses.size() == static_cast<std::size_t>(requests)
                    ? "all requests completed"
                    : "LOST REQUESTS",
                responses.size(), requests, terminal);
    fail::disarm_all();
  }

  if (report_path) {
    runtime::publish_metrics();
    obs::RunReport report = server.report();
    report.meta("requests", std::to_string(requests));
    report.meta("unique_layouts", std::to_string(unique));
    report.meta("clients", std::to_string(clients));
    report.write(report_path);
    std::printf("wrote run report %s\n", report_path);
  }
  if (admin_port && admin_linger_ms > 0) {
    std::printf("admin: lingering %d ms for manual scrapes "
                "(e.g. curl -s http://127.0.0.1:%d/trace > trace.json, "
                "then load it in ui.perfetto.dev)\n",
                admin_linger_ms, server.admin_port());
    std::this_thread::sleep_for(std::chrono::milliseconds(admin_linger_ms));
  }
  server.shutdown();
  return 0;
}

// --- cluster subcommands (src/net) ---

volatile std::sig_atomic_t g_signal_stop = 0;
void handle_stop_signal(int) { g_signal_stop = 1; }

/// Blocks until SIGINT/SIGTERM (the serve/route process lifetime).
void wait_for_stop_signal() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (!g_signal_stop)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

// Worker daemon: drains wire-protocol frames into an in-process
// serve::Server until SIGTERM, then drains and (if configured) writes the
// result-cache snapshot. The cluster tests parse the "listening on port"
// line from stdout, so it is printed unbuffered before the wait.
int cmd_serve(int argc, char** argv) {
  net::DaemonConfig cfg;
  cfg.listen_port = std::atoi(flag_value(argc, argv, "--listen", "0"));
  cfg.serve.engine.litho = cli_litho();
  cfg.serve.engine.litho.grid_size =
      std::atoi(flag_value(argc, argv, "--grid", "64"));
  cfg.serve.engine.litho.pixel_nm =
      std::atof(flag_value(argc, argv, "--pixel", "16"));
  cfg.serve.dispatchers =
      std::atoi(flag_value(argc, argv, "--dispatchers", "2"));
  cfg.serve.overflow = serve::OverflowPolicy::kBlock;
  cfg.weights_path = flag_value(argc, argv, "--weights", "");
  cfg.snapshot_path = flag_value(argc, argv, "--snapshot", "");
  const char* warm_path = flag_value(argc, argv, "--warm-start", nullptr);
  if (warm_path) {
    // One shared model serves every dispatcher engine; its weight version
    // is folded into the config fingerprint so cached results retire if
    // the daemon restarts with a retrained model.
    warmstart::MaskNetConfig net_cfg;
    net_cfg.grid_size = cfg.serve.engine.litho.grid_size;
    net_cfg.base_width =
        std::atoi(flag_value(argc, argv, "--warm-width", "8"));
    auto warm = std::make_shared<warmstart::MaskWarmStart>(net_cfg);
    warm->load(warm_path);
    cfg.serve.warm_start = warm;
    cfg.serve.engine.flow.warm_start.enabled = true;
    cfg.serve.engine.flow.warm_start.max_iterations =
        std::atoi(flag_value(argc, argv, "--warm-iters", "25"));
  }
  const char* admin_port = flag_value(argc, argv, "--admin-port", nullptr);
  if (admin_port) {
    cfg.serve.admin.enabled = true;
    cfg.serve.admin.port = std::atoi(admin_port);
  }

  // Online-learning flywheel: capture completed runs into a training log
  // and fine-tune/promote the predictor in the background (DESIGN.md §16).
  // The sink hangs off the serve config (so the daemon's blue/green swaps
  // carry it into every replacement server); the tuner promotes through
  // the daemon's versioned swap path, exactly like a wire swap-weights.
  const char* flywheel_log = flag_value(argc, argv, "--flywheel", nullptr);
  std::shared_ptr<flywheel::TrainingLogSink> sink;
  if (flywheel_log) {
    flywheel::SinkConfig sink_cfg;
    sink_cfg.path = flywheel_log;
    sink_cfg.image_size = 64;  // default CnnPredictor ResNet input size
    sink_cfg.sample_every =
        std::atoi(flag_value(argc, argv, "--flywheel-sample", "1"));
    sink = std::make_shared<flywheel::TrainingLogSink>(sink_cfg);
    cfg.serve.capture = sink;
  }

  net::ServeDaemon daemon(cfg);

  std::unique_ptr<flywheel::FineTuner> tuner;
  if (flywheel_log) {
    flywheel::TunerConfig tuner_cfg;
    tuner_cfg.log_path = flywheel_log;
    tuner_cfg.min_new_records = static_cast<std::size_t>(
        std::atoi(flag_value(argc, argv, "--flywheel-min-new", "12")));
    tuner_cfg.poll_interval_ms =
        std::atoi(flag_value(argc, argv, "--flywheel-poll-ms", "500"));
    tuner_cfg.trainer.epochs =
        std::atoi(flag_value(argc, argv, "--flywheel-epochs", "4"));
    tuner = std::make_unique<flywheel::FineTuner>(
        tuner_cfg,
        [&daemon](std::uint64_t version,
                  const std::vector<std::uint8_t>& blob) {
          daemon.swap_weights(version, blob);
        });
    if (!cfg.weights_path.empty()) {
      const std::vector<std::uint8_t> incumbent =
          common::read_file(cfg.weights_path);
      if (!incumbent.empty()) tuner->set_incumbent(incumbent);
    }
    tuner->start();
  }

  std::printf("serve: listening on port %d\n", daemon.port());
  if (admin_port)
    std::printf("serve: admin on http://127.0.0.1:%d\n",
                daemon.server()->admin_port());
  if (flywheel_log)
    std::printf("serve: flywheel capturing to %s\n", flywheel_log);
  std::fflush(stdout);
  wait_for_stop_signal();
  if (tuner) tuner->stop();
  daemon.stop();
  if (sink) sink->drain();
  if (tuner)
    std::printf("serve: flywheel captured %lld pairs, %lld rounds, "
                "%lld promotions\n",
                sink->captured(), tuner->rounds(), tuner->promotions());
  std::printf("serve: stopped\n");
  return 0;
}

std::vector<int> parse_port_list(const char* spec) {
  std::vector<int> ports;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) ports.push_back(std::atoi(item.c_str()));
  return ports;
}

// Router process: consistent-hash front door over worker ports.
int cmd_route(int argc, char** argv) {
  const char* workers = flag_value(argc, argv, "--workers", nullptr);
  if (!workers) return usage();
  net::RouterConfig cfg;
  cfg.listen_port = std::atoi(flag_value(argc, argv, "--listen", "0"));
  cfg.worker_ports = parse_port_list(workers);
  if (cfg.worker_ports.empty()) return usage();
  const char* admin_port = flag_value(argc, argv, "--admin-port", nullptr);
  if (admin_port) {
    cfg.admin.enabled = true;
    cfg.admin.port = std::atoi(admin_port);
  }

  net::Router router(cfg);
  std::printf("route: listening on port %d\n", router.port());
  if (admin_port)
    std::printf("route: admin on http://127.0.0.1:%d\n",
                router.admin_port());
  std::fflush(stdout);
  wait_for_stop_signal();
  router.stop();
  std::printf("route: stopped\n");
  return 0;
}

// One layout over the wire: submit to a worker or router and print the
// terminal status (the cluster quick-start's smoke test).
int cmd_net_submit(int argc, char** argv) {
  if (argc < 3) return usage();
  const char* port = flag_value(argc, argv, "--port", nullptr);
  if (!port) return usage();
  serve::ServeRequest request;
  request.layout = layout::read_layout_text(argv[2]);
  request.deadline_seconds =
      std::atof(flag_value(argc, argv, "--deadline-ms", "0")) / 1000.0;

  net::Client client(net::ClientConfig{.port = std::atoi(port)});
  const serve::ServeResponse response = client.submit(request);
  std::printf("net-submit: %s (%s) in %.3fs", serve::status_name(response.status),
              response.ok() ? "ok" : response.error.message.c_str(),
              response.total_seconds);
  if (response.ok())
    std::printf(", %d EPE violations, L2 %.1f",
                response.result.ilt.report.epe.violation_count,
                response.result.ilt.report.l2);
  std::printf("\n");
  return response.ok() ? 0 : 1;
}

int cmd_net_stats(int argc, char** argv) {
  const char* port = flag_value(argc, argv, "--port", nullptr);
  if (!port) return usage();
  net::Client client(net::ClientConfig{.port = std::atoi(port)});
  const net::WorkerStats stats = client.stats();
  std::printf("worker: predictor %s, weights v%llu, config %016llx\n",
              stats.predictor.c_str(),
              static_cast<unsigned long long>(stats.weights_version),
              static_cast<unsigned long long>(stats.config_fingerprint));
  for (int s = 0; s < serve::kServeStatusCount; ++s)
    std::printf("  %-10s %lld\n",
                serve::status_name(static_cast<serve::ServeStatus>(s)),
                stats.status_counts[s]);
  std::printf("  cache: %llu entries, %lld hits, %lld misses; queue %llu\n",
              static_cast<unsigned long long>(stats.cache_entries),
              stats.cache_hits, stats.cache_misses,
              static_cast<unsigned long long>(stats.queue_depth));
  return 0;
}

// Versioned weight hot-swap: push a weights file (or, with no --weights, a
// rolling restart that keeps the current weights and carries the warm
// cache across) to a worker — or to a router, which broadcasts it.
int cmd_swap_weights(int argc, char** argv) {
  const char* port = flag_value(argc, argv, "--port", nullptr);
  if (!port) return usage();
  const char* weights = flag_value(argc, argv, "--weights", nullptr);
  const std::uint64_t version = static_cast<std::uint64_t>(
      std::atoll(flag_value(argc, argv, "--version", "0")));

  std::vector<std::uint8_t> blob;
  if (weights) blob = common::read_file(weights);
  // Optional warm-start MaskNet push in the same swap: the worker loads it
  // into a fresh MaskWarmStart whose version retires warm-dependent keys.
  std::vector<std::uint8_t> warm_blob;
  if (const char* warm = flag_value(argc, argv, "--warm-start", nullptr))
    warm_blob = common::read_file(warm);
  net::Client client(net::ClientConfig{.port = std::atoi(port)});
  const std::uint64_t active = client.swap_weights(version, blob, warm_blob);
  std::printf("swap-weights: active version is now %llu\n",
              static_cast<unsigned long long>(active));
  return 0;
}

// Inspect a flywheel training log: record count, framing health, score
// spread — the operator's first stop when the flywheel looks stalled.
int cmd_flywheel_stats(int argc, char** argv) {
  const char* log_path = flag_value(argc, argv, "--log", nullptr);
  if (!log_path) return usage();
  const flywheel::TrainingLog log = flywheel::read_training_log(log_path);
  double lo = 0.0, hi = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < log.pairs.size(); ++i) {
    const double s = log.pairs[i].score;
    lo = i == 0 ? s : std::min(lo, s);
    hi = i == 0 ? s : std::max(hi, s);
    sum += s;
  }
  std::printf("flywheel log %s: %zu pairs at %dx%d%s\n", log_path,
              log.pairs.size(), log.image_size, log.image_size,
              log.torn_tail ? " (torn tail dropped)" : "");
  if (!log.pairs.empty())
    std::printf("scores: min %.3f, mean %.3f, max %.3f\n", lo,
                sum / static_cast<double>(log.pairs.size()), hi);
  return 0;
}

// One offline flywheel round: fine-tune on a captured log and write the
// candidate weights iff they beat the incumbent on the held-out slice.
// Exit 0 = promoted, 1 = gate held or not enough data.
int cmd_flywheel_train(int argc, char** argv) {
  const char* log_path = flag_value(argc, argv, "--log", nullptr);
  const char* out = flag_value(argc, argv, "--out", nullptr);
  if (!log_path || !out) return usage();

  flywheel::TunerConfig cfg;
  cfg.log_path = log_path;
  cfg.min_new_records = static_cast<std::size_t>(
      std::atoi(flag_value(argc, argv, "--min-new", "8")));
  cfg.trainer.epochs = std::atoi(flag_value(argc, argv, "--epochs", "4"));
  cfg.trainer.batch_size = std::atoi(flag_value(argc, argv, "--batch", "8"));
  cfg.trainer.adam.learning_rate =
      std::atof(flag_value(argc, argv, "--lr", "0.001"));

  bool promoted = false;
  flywheel::FineTuner tuner(
      cfg, [&](std::uint64_t, const std::vector<std::uint8_t>& blob) {
        common::write_file_atomic(out, blob);
        promoted = true;
      });
  if (const char* weights = flag_value(argc, argv, "--weights", nullptr))
    tuner.set_incumbent(common::read_file(weights));
  const flywheel::TuneRound round = tuner.run_once();
  std::printf("flywheel-train: %s (records %zu, train %zu, holdout %zu, "
              "incumbent corr %.3f, candidate corr %.3f)\n",
              round.detail.c_str(), round.records, round.train_count,
              round.holdout_count, round.incumbent_corr,
              round.candidate_corr);
  if (promoted) std::printf("wrote %s\n", out);
  return round.promoted ? 0 : 1;
}

// One accepted flag of a verb; a value flag consumes the next argument.
struct FlagSpec {
  const char* name;
  bool takes_value = true;
};

// Flags every verb accepts. --threads and --backend are applied (and
// removed from argv) before dispatch, --log-level right after the check.
const FlagSpec kCommonFlags[] = {{"--threads"}, {"--backend"},
                                 {"--log-level"}};

struct Verb {
  const char* name;
  int (*run)(int argc, char** argv);
  std::vector<FlagSpec> flags;
};

const std::vector<Verb>& verbs() {
  static const std::vector<Verb> table = {
      {"generate", cmd_generate, {{"--seed"}, {"--out"}}},
      {"inspect", cmd_inspect, {}},
      {"run", cmd_run,
       {{"--flow"}, {"--report"}, {"--warm-start"}, {"--warm-iters"},
        {"--warm-width"}}},
      {"validate-report", cmd_validate_report, {}},
      {"warmstart-harvest", cmd_warmstart_harvest,
       {{"--out"}, {"--clips"}, {"--seed0"}, {"--sampling", false},
        {"--oversample"}}},
      {"warmstart-train", cmd_warmstart_train,
       {{"--corpus"}, {"--out"}, {"--epochs"}, {"--batch"}, {"--lr"},
        {"--width"}}},
      {"serve-bench", cmd_serve_bench,
       {{"--requests"}, {"--unique"}, {"--clients"}, {"--dispatchers"},
        {"--deadline-ms"}, {"--no-cache", false}, {"--report"},
        {"--inject", false}, {"--inject-prob"}, {"--inject-seed"},
        {"--admin-port"}, {"--admin-linger-ms"}, {"--net-workers"}}},
      {"serve", cmd_serve,
       {{"--listen"}, {"--dispatchers"}, {"--grid"}, {"--pixel"},
        {"--weights"}, {"--snapshot"}, {"--warm-start"}, {"--warm-iters"},
        {"--warm-width"}, {"--flywheel"}, {"--flywheel-min-new"},
        {"--flywheel-sample"}, {"--flywheel-poll-ms"},
        {"--flywheel-epochs"}, {"--admin-port"}}},
      {"route", cmd_route, {{"--workers"}, {"--listen"}, {"--admin-port"}}},
      {"net-submit", cmd_net_submit, {{"--port"}, {"--deadline-ms"}}},
      {"net-stats", cmd_net_stats, {{"--port"}}},
      {"swap-weights", cmd_swap_weights,
       {{"--port"}, {"--weights"}, {"--version"}, {"--warm-start"}}},
      {"flywheel-stats", cmd_flywheel_stats, {{"--log"}}},
      {"flywheel-train", cmd_flywheel_train,
       {{"--log"}, {"--out"}, {"--weights"}, {"--min-new"}, {"--epochs"},
        {"--batch"}, {"--lr"}}},
  };
  return table;
}

const FlagSpec* find_flag(const Verb& verb, const char* arg) {
  for (const FlagSpec& f : verb.flags)
    if (std::strcmp(f.name, arg) == 0) return &f;
  for (const FlagSpec& f : kCommonFlags)
    if (std::strcmp(f.name, arg) == 0) return &f;
  return nullptr;
}

// Throws on the first --flag the verb does not accept, so a mistyped or
// retired flag stops the command before it does any work.
void check_flags(const Verb& verb, int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const FlagSpec* flag = find_flag(verb, argv[i]);
    if (!flag)
      throw std::runtime_error(std::string("unknown flag '") + argv[i] +
                               "' for '" + verb.name + "'");
    if (flag->takes_value) ++i;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    runtime::apply_threads_flag(argc, argv);
    kernels::apply_backend_flag(argc, argv);
    for (const Verb& verb : verbs()) {
      if (std::strcmp(argv[1], verb.name) != 0) continue;
      check_flags(verb, argc, argv);
      apply_log_level_flag(argc, argv);
      return verb.run(argc, argv);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}

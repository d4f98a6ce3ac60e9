#include <algorithm>

#include "common/timer.h"
#include "core/flow_engine.h"
#include "layers.h"
#include "obs/span.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace ldmo::perfbench {

namespace {

// Clips kept for the per-layer timings of the traced run.
constexpr std::size_t kLayerClips = 4;
// Fewest clips an end-to-end run measures, however short --seconds is.
constexpr std::uint64_t kMinClips = 10;
// Passes over the clips of an end-to-end run (see measure_end_to_end).
constexpr int kRounds = 3;

/// Runs one clip, books a failure or checks the delivered masks, and
/// returns whether the run delivered.
bool run_clip(core::FlowEngine& engine, const layout::Layout& clip,
              core::LdmoResult& result, RunResult& out) {
  ++out.attempted;
  if (result.failed || result.cancelled) {
    ++out.failed;
    out.fail_check(clip.name + (result.failed
                                    ? " failed: " + result.error.message
                                    : std::string(" cancelled")));
    return false;
  }
  const std::string why =
      check_rescore(engine.simulator(), clip, Delivery::of(result));
  if (!why.empty()) out.fail_check(why);
  return true;
}

/// Other tenants of a shared host slow whole stretches of a run, by up to
/// 1.5x for several seconds at a time. So the run is split into rounds: the
/// first round takes clips until its share of --seconds is used, the later
/// rounds re-run the same clips, and a clip's time is its best round.
/// Repeats in a warm session redo the same work (the engine caches nothing
/// per clip) and must deliver the same bytes.
void measure_end_to_end(const Args& args, core::FlowEngine& engine,
                        RunResult& out) {
  const int rounds = args.smoke ? 1 : kRounds;
  const std::uint64_t min_clips = args.smoke ? 2 : kMinClips;
  std::vector<double> best_wall_s, best_cpu_s;  // per clip
  std::vector<std::uint64_t> digests;
  for (int round = 0; round < rounds; ++round) {
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0;
         round > 0 ? i < best_wall_s.size()
                   : i < min_clips ||
                         seconds_since(start) < args.seconds / rounds;
         ++i) {
      const layout::Layout clip = make_clip(args.seed, i);
      const double cpu0 = Timer::process_cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      core::LdmoResult result = engine.run(clip);
      const double wall = seconds_since(t0);
      const double cpu = Timer::process_cpu_seconds() - cpu0;
      // Outside the timed region: failure accounting and output checks.
      const std::uint64_t digest =
          run_clip(engine, clip, result, out) ? Delivery::of(result).digest() : 0;
      if (round == 0) {
        best_wall_s.push_back(wall);
        best_cpu_s.push_back(cpu);
        digests.push_back(digest);
        continue;
      }
      best_wall_s[i] = std::min(best_wall_s[i], wall);
      best_cpu_s[i] = std::min(best_cpu_s[i], cpu);
      if (digest != digests[i])
        out.fail_check(clip.name + ": a repeat run delivered different masks");
    }
  }
  std::vector<double> wall_ms;
  double wall_s = 0.0, cpu_s = 0.0;
  for (std::size_t i = 0; i < best_wall_s.size(); ++i) {
    wall_ms.push_back(best_wall_s[i] * 1e3);
    wall_s += best_wall_s[i];
    cpu_s += best_cpu_s[i];
  }
  const long long n = static_cast<long long>(wall_ms.size());
  out.add("clips_per_s", wall_s > 0.0 ? n / wall_s : 0.0, "1/s", n);
  out.add("clip_ms_p50", quantile(wall_ms, 0.5), "ms", n);
  out.add("clip_ms_p90", quantile(wall_ms, 0.9), "ms", n);
  // Every clip of a flow session is a fresh flow run.
  out.add("fresh_ms_p50", quantile(wall_ms, 0.5), "ms", n);
  out.add("fresh_ms_p90", quantile(wall_ms, 0.9), "ms", n);
  out.add("cpu_ms_per_clip", n > 0 ? cpu_s * 1e3 / n : 0.0, "ms", n);

  // Quality, after the timed loop, on the fixed clip set.
  double score_sum = 0.0;
  const std::vector<layout::Layout> quality = quality_clips(args.smoke);
  for (const layout::Layout& clip : quality) {
    core::LdmoResult result = engine.run(clip);
    if (run_clip(engine, clip, result, out))
      score_sum += result.ilt.report.score();
  }
  out.add("mean_score", score_sum / quality.size(), "score",
          static_cast<long long>(quality.size()));
}

/// Each clip runs once untraced and once traced, in alternating order, so
/// the tracing overhead compares identical work. The traced runs give the
/// stage split and the counter figures; a few of their clips then feed the
/// per-layer timings.
void measure_layers_traced(const Args& args,
                           core::FlowEngine& engine, RunResult& out) {
  std::vector<StageSplit> splits;
  std::vector<layout::Layout> layer_clips;
  std::vector<core::LdmoResult> layer_results;
  LayerCounters counters;
  long long candidates = 0;
  double untraced_s = 0.0, traced_s = 0.0, traced_cpu_s = 0.0;
  const std::size_t min_clips = args.smoke ? 2 : 8;

  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;
       i < min_clips || seconds_since(start) < args.seconds; ++i) {
    const layout::Layout clip = make_clip(args.seed, i);
    const auto untraced = [&] {
      const Clock::time_point t0 = Clock::now();
      core::LdmoResult result = engine.run(clip);
      untraced_s += seconds_since(t0);
      run_clip(engine, clip, result, out);
    };
    const auto traced = [&] {
      obs::set_tracing_enabled(true);
      const LayerCounters before = LayerCounters::read();
      const double cpu0 = Timer::process_cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      core::LdmoResult result = engine.run(clip);
      const double wall = seconds_since(t0);
      const double cpu = Timer::process_cpu_seconds() - cpu0;
      counters += LayerCounters::read() - before;
      obs::set_tracing_enabled(false);
      traced_s += wall;
      traced_cpu_s += cpu;
      if (!run_clip(engine, clip, result, out)) return;
      splits.push_back(split_stages(result, wall));
      candidates += result.candidates_generated;
      if (layer_clips.size() < kLayerClips) {
        layer_clips.push_back(clip);
        layer_results.push_back(std::move(result));
      }
    };
    if (i % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
  }
  obs::tracer().clear();

  report_stages(splits, out);
  report_counters(counters, static_cast<long long>(splits.size()), candidates,
                  traced_cpu_s, traced_s, out);
  out.add("obs.trace_overhead_share",
          untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0, "ratio",
          static_cast<long long>(splits.size()));

  measure_layers({engine.simulator(), engine.ilt_engine(), engine.predictor(),
                  engine.config().flow.generation, layer_clips, layer_results,
                  args.smoke},
                 out);
}

}  // namespace

RunResult run_flow(const FlowSpec& spec, const Args& args) {
  RunResult out;
  runtime::set_thread_count(spec.threads);
  core::FlowEngineConfig config;
  config.litho = spec.litho;
  core::FlowEngine engine(
      config, spec.cnn ? std::unique_ptr<core::PrintabilityPredictor>(seeded_cnn())
                       : nullptr);
  engine.warmup();
  const double setup_s = seconds_since(args.process_start);
  if (args.trace) {
    measure_layers_traced(args, engine, out);
    return out;
  }
  out.add("setup_s", setup_s, "s", 1);
  if (!args.setup_only) measure_end_to_end(args, engine, out);
  return out;
}

}  // namespace ldmo::perfbench

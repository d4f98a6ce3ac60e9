// Shared pieces of the LDMO benchmark: arguments, seeded inputs, sample
// statistics, output checks and the run result. Everything here drives the library through its public headers only.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ldmo_flow.h"
#include "core/predictor.h"
#include "layout/layout.h"
#include "litho/config.h"
#include "litho/simulator.h"

namespace ldmo::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;       ///< per-layer run instead of the end-to-end run
  bool setup_only = false;  ///< set up, report setup_s and exit
  bool smoke = false;       ///< a few samples per workload, names only
  Clock::time_point process_start;
};

/// One reported figure with the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long long samples = 0;
};

/// What one run reports: the metrics plus the attempt/failure tally and
/// every output check that did not hold.
struct RunResult {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;

  void add(std::string name, double value, std::string unit,
           long long samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void fail_check(std::string what) {
    if (check_failures.size() < 20) check_failures.push_back(std::move(what));
    else if (check_failures.size() == 20) check_failures.push_back("...");
  }
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Workload inputs: clip `index` of the stream seeded by `seed`, with the
/// generator's contact count stratified over the index.
layout::Layout make_clip(std::uint64_t seed, std::uint64_t index);

/// The fixed clip set mean_score is taken over: the 13 Table I layouts
/// (only the first two in smoke runs). It does not depend on the seed
/// because per-clip scores are heavy-tailed: the mean over a few dozen
/// seeded clips moves by tens of percent from one seed to the next.
std::vector<layout::Layout> quality_clips(bool smoke);

/// The 128 px experiment model (bench_util) and the CLI's 64 px model.
litho::LithoConfig litho_128px();
litho::LithoConfig litho_64px();

/// The seeded, untrained CNN ranker: ResNetConfig{} (seed 1234).
std::unique_ptr<core::CnnPredictor> seeded_cnn();

/// What a run delivers to its caller: the chosen decomposition, the mask
/// pair and its Eq. 9 score.
struct Delivery {
  layout::Assignment chosen;
  GridF mask1;
  GridF mask2;
  double score = 0.0;

  static Delivery of(const core::LdmoResult& result);
  /// Byte-identical masks, decomposition and score.
  bool same_bytes(const Delivery& other) const;
  /// FNV-1a over the same bytes, for comparing deliveries not kept whole.
  std::uint64_t digest() const;
};

/// Re-prints the delivered masks through LithoSimulator::print + evaluate
/// and returns "" when the Eq. 9 score reproduces exactly, else why not.
std::string check_rescore(const litho::LithoSimulator& simulator,
                          const layout::Layout& layout,
                          const Delivery& delivery);

/// VmHWM of this process in MiB.
double peak_rss_mb();

/// Per-clip stage split of a finished flow run whose wall time was
/// `wall_s`: generate/predict/ilt come from LdmoResult::timing, `other` is
/// the part of `wall_s` no named stage claims.
struct StageSplit {
  double generate_s = 0.0;
  double predict_s = 0.0;
  double ilt_s = 0.0;
  double other_s = 0.0;
};
StageSplit split_stages(const core::LdmoResult& result, double wall_s);

/// Records the flow.* stage metrics (means, so the four stages sum to the
/// mean clip time).
void report_stages(const std::vector<StageSplit>& splits, RunResult& out);

/// Registry counters the traced run turns into per-clip figures.
struct LayerCounters {
  long long ilt_runs = 0;        ///< ILT attempts started
  long long ilt_iterations = 0;
  long long tasks_executed = 0;  ///< pool tasks run by workers
  long long tasks_inline = 0;    ///< pool tasks run by their caller
  long long cnn_images = 0;      ///< CNN inferences

  static LayerCounters read();
  LayerCounters operator-(const LayerCounters& before) const;
  LayerCounters& operator+=(const LayerCounters& delta);
};

/// Adds the opc, nn, mpl and runtime per-clip figures of `clips` fresh flow
/// runs that generated `candidates` decompositions in total and used
/// `cpu_s` process-CPU seconds over `wall_s` seconds.
void report_counters(const LayerCounters& delta, long long clips,
                     long long candidates, double cpu_s, double wall_s,
                     RunResult& out);

}  // namespace ldmo::perfbench

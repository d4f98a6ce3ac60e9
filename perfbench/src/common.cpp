#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "bench_util.h"
#include "common/hash.h"
#include "layout/generator.h"
#include "nn/resnet.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace ldmo::perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

layout::Layout make_clip(std::uint64_t seed, std::uint64_t index) {
  // Contact count is the main driver of a clip's cost (candidate count,
  // hence prediction time), so it is stratified: clip i has the i-th count
  // of the generator's range in turn, and only the placement comes from
  // the seed. The counts stay uniform over the range, as the generator
  // draws them, but every run sees the same mix whatever its seed.
  layout::GeneratorConfig config;
  const int counts = config.max_contacts - config.min_contacts + 1;
  config.min_contacts += static_cast<int>(index % static_cast<std::uint64_t>(counts));
  config.max_contacts = config.min_contacts;
  layout::Layout clip = layout::LayoutGenerator(config).generate(
      splitmix64(splitmix64(seed) + index));
  clip.name = "clip" + std::to_string(index);
  return clip;
}

std::vector<layout::Layout> quality_clips(bool smoke) {
  std::vector<layout::Layout> clips = bench::table1_layouts();
  if (smoke) clips.resize(2);
  return clips;
}

litho::LithoConfig litho_128px() { return bench::experiment_litho(); }

litho::LithoConfig litho_64px() {
  // ldmo_cli's quick model: same 1024 nm field at half the resolution.
  litho::LithoConfig cfg;
  cfg.grid_size = 64;
  cfg.pixel_nm = 16.0;
  return cfg;
}

std::unique_ptr<core::CnnPredictor> seeded_cnn() {
  return std::make_unique<core::CnnPredictor>(
      std::make_unique<nn::ResNetRegressor>(nn::ResNetConfig{}));
}

Delivery Delivery::of(const core::LdmoResult& result) {
  return {result.chosen, result.ilt.mask1, result.ilt.mask2,
          result.ilt.report.score()};
}

namespace {

bool same_grid(const GridF& a, const GridF& b) {
  return a.height() == b.height() && a.width() == b.width() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

bool Delivery::same_bytes(const Delivery& other) const {
  return chosen == other.chosen && same_grid(mask1, other.mask1) &&
         same_grid(mask2, other.mask2) &&
         std::memcmp(&score, &other.score, sizeof(double)) == 0;
}

std::uint64_t Delivery::digest() const {
  std::string bytes(reinterpret_cast<const char*>(chosen.data()),
                    chosen.size() * sizeof(int));
  bytes.append(reinterpret_cast<const char*>(mask1.data()),
               mask1.size() * sizeof(double));
  bytes.append(reinterpret_cast<const char*>(mask2.data()),
               mask2.size() * sizeof(double));
  bytes.append(reinterpret_cast<const char*>(&score), sizeof score);
  return common::fnv1a(bytes);
}

std::string check_rescore(const litho::LithoSimulator& simulator,
                          const layout::Layout& layout,
                          const Delivery& delivery) {
  const GridF printed = simulator.print(delivery.mask1, delivery.mask2);
  const double rescored = simulator.evaluate(printed, layout).score();
  if (std::memcmp(&delivery.score, &rescored, sizeof(double)) == 0) return "";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s: reported score %.17g, re-printed score %.17g",
                layout.name.c_str(), delivery.score, rescored);
  return buf;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

StageSplit split_stages(const core::LdmoResult& result, double wall_s) {
  StageSplit s;
  s.generate_s = result.timing.get("generate");
  s.predict_s = result.timing.get("predict");
  s.ilt_s = result.timing.get("ilt");
  s.other_s = wall_s - s.generate_s - s.predict_s - s.ilt_s;
  return s;
}

void report_stages(const std::vector<StageSplit>& splits, RunResult& out) {
  std::vector<double> generate, predict, ilt, other, wall;
  for (const StageSplit& s : splits) {
    generate.push_back(s.generate_s * 1e3);
    predict.push_back(s.predict_s * 1e3);
    ilt.push_back(s.ilt_s * 1e3);
    other.push_back(s.other_s * 1e3);
    wall.push_back((s.generate_s + s.predict_s + s.ilt_s + s.other_s) * 1e3);
  }
  const long long n = static_cast<long long>(splits.size());
  const double named = mean(generate) + mean(predict) + mean(ilt);
  out.add("flow.clip_ms", mean(wall), "ms", n);
  out.add("flow.generate_ms", mean(generate), "ms", n);
  out.add("flow.predict_ms", mean(predict), "ms", n);
  out.add("flow.ilt_ms", mean(ilt), "ms", n);
  out.add("flow.other_ms", mean(other), "ms", n);
  out.add("flow.stage_explained_share",
          mean(wall) > 0.0 ? named / mean(wall) : 0.0, "ratio", n);
}

LayerCounters LayerCounters::read() {
  LayerCounters c;
  c.ilt_runs = obs::counter("ilt.runs").value();
  c.ilt_iterations = obs::counter("ilt.iterations").value();
  c.tasks_executed = obs::counter("runtime.tasks_executed").value();
  c.tasks_inline = obs::counter("runtime.tasks_inline").value();
  c.cnn_images = obs::counter("predictor.cnn.inferences").value();
  return c;
}

LayerCounters LayerCounters::operator-(const LayerCounters& before) const {
  LayerCounters d;
  d.ilt_runs = ilt_runs - before.ilt_runs;
  d.ilt_iterations = ilt_iterations - before.ilt_iterations;
  d.tasks_executed = tasks_executed - before.tasks_executed;
  d.tasks_inline = tasks_inline - before.tasks_inline;
  d.cnn_images = cnn_images - before.cnn_images;
  return d;
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& delta) {
  ilt_runs += delta.ilt_runs;
  ilt_iterations += delta.ilt_iterations;
  tasks_executed += delta.tasks_executed;
  tasks_inline += delta.tasks_inline;
  cnn_images += delta.cnn_images;
  return *this;
}

void report_counters(const LayerCounters& delta, long long clips,
                     long long candidates, double cpu_s, double wall_s,
                     RunResult& out) {
  const double n = static_cast<double>(std::max(clips, 1LL));
  out.add("opc.iterations_per_clip", delta.ilt_iterations / n, "count/clip",
          clips);
  out.add("opc.attempts_per_clip", delta.ilt_runs / n, "count/clip", clips);
  // Each clip keeps exactly one attempt's masks.
  out.add("opc.useful_attempt_ratio",
          delta.ilt_runs > 0 ? static_cast<double>(clips) / delta.ilt_runs : 0.0,
          "ratio", delta.ilt_runs);
  out.add("mpl.candidates_per_clip", candidates / n, "count/clip", clips);
  out.add("nn.images_per_clip", delta.cnn_images / n, "count/clip", clips);
  out.add("runtime.tasks_executed", delta.tasks_executed / n, "count/clip",
          clips);
  out.add("runtime.tasks_inline", delta.tasks_inline / n, "count/clip", clips);
  out.add("runtime.cpu_wall_ratio", wall_s > 0.0 ? cpu_s / wall_s : 0.0,
          "ratio", clips);
}

}  // namespace ldmo::perfbench

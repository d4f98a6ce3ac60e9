#include "core/predictor.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "common/failpoint.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "sampling/training_set.h"

namespace ldmo::core {

std::vector<double> PrintabilityPredictor::score_batch(
    const layout::Layout& layout,
    const std::vector<layout::Assignment>& candidates) {
  std::vector<ScoringItem> items;
  items.reserve(candidates.size());
  for (const layout::Assignment& candidate : candidates)
    items.push_back({&layout, &candidate});
  return score(items);
}

CnnPredictor::CnnPredictor(std::unique_ptr<nn::ResNetRegressor> network)
    : network_(std::move(network)) {
  require(network_ != nullptr, "CnnPredictor: null network");
}

std::vector<double> CnnPredictor::score(
    const std::vector<ScoringItem>& items) {
  // The paper's headline economy: each CNN inference here replaces a full
  // ILT + lithography-simulation evaluation (compare against
  // "litho.exposures" in the run report).
  static obs::Counter& inference_counter =
      obs::counter("predictor.cnn.inferences");
  fail::maybe_fail("predictor.score", FlowStage::kPredict);
  inference_counter.inc(static_cast<long long>(items.size()));

  const int size = network_->config().input_size;
  const std::size_t pixels =
      static_cast<std::size_t>(size) * static_cast<std::size_t>(size);

  // Fixed batch size, independent of the thread count AND of how requests
  // were coalesced: it bounds activation memory, and eval-mode inference is
  // sample-independent, so each score is bit-identical however the stream
  // is chunked (the serving determinism contract).
  constexpr std::size_t kBatch = 16;
  std::vector<double> scores(items.size());
  for (std::size_t base = 0; base < items.size(); base += kBatch) {
    const std::size_t count = std::min(kBatch, items.size() - base);
    nn::Tensor batch({static_cast<int>(count), 1, size, size});
    // Rasterizing the decomposition images is per-candidate independent.
    runtime::parallel_for(count, [&](std::size_t i) {
      const ScoringItem& item = items[base + i];
      const nn::Tensor image = sampling::decomposition_tensor(
          *item.layout, *item.assignment, size);
      std::memcpy(batch.data() + i * pixels, image.data(),
                  pixels * sizeof(float));
    });
    const nn::Tensor out = network_->forward(batch, /*training=*/false);
    for (std::size_t i = 0; i < count; ++i)
      scores[base + i] = static_cast<double>(out[i]);
  }
  return scores;
}

void CnnPredictor::save(const std::string& path) {
  nn::save_parameters(network_->parameters(), path);
}

void CnnPredictor::load(const std::string& path) {
  nn::load_parameters(network_->parameters(), path);
}

IltOraclePredictor::IltOraclePredictor(const opc::IltEngine& engine,
                                       litho::ScoreWeights weights)
    : engine_(engine), weights_(weights) {}

std::vector<double> IltOraclePredictor::score(
    const std::vector<ScoringItem>& items) {
  static obs::Counter& oracle_counter =
      obs::counter("predictor.oracle.ilt_runs");
  fail::maybe_fail("predictor.score", FlowStage::kPredict);
  oracle_counter.inc(static_cast<long long>(items.size()));
  std::vector<double> scores(items.size());
  runtime::parallel_for(items.size(), [&](std::size_t i) {
    scores[i] = engine_.optimize(*items[i].layout, *items[i].assignment)
                    .report.score(weights_);
  });
  return scores;
}

RawPrintPredictor::RawPrintPredictor(const litho::LithoSimulator& simulator,
                                     litho::ScoreWeights weights)
    : simulator_(simulator), weights_(weights) {}

std::vector<double> RawPrintPredictor::score(
    const std::vector<ScoringItem>& items) {
  static obs::Counter& raw_counter =
      obs::counter("predictor.raw_print.evaluations");
  fail::maybe_fail("predictor.score", FlowStage::kPredict);
  raw_counter.inc(static_cast<long long>(items.size()));
  std::vector<double> scores(items.size());
  runtime::parallel_for(items.size(), [&](std::size_t i) {
    const layout::Layout& layout = *items[i].layout;
    const GridF response =
        simulator_.print_decomposition(layout, *items[i].assignment);
    scores[i] = simulator_.evaluate(response, layout).score(weights_);
  });
  return scores;
}

}  // namespace ldmo::core

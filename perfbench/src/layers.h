// Per-layer timings of the traced run: each public entry point of a layer
// is timed on the workload's own clips, candidates and delivered masks, at
// the workload's grid and thread budget.
#pragma once

#include <vector>

#include "common.h"
#include "mpl/decomposition_generator.h"
#include "opc/ilt.h"

namespace ldmo::perfbench {

struct LayerInputs {
  const litho::LithoSimulator& simulator;
  const opc::IltEngine& engine;
  core::PrintabilityPredictor& predictor;  ///< the workload's ranker
  const mpl::GenerationConfig& generation;
  const std::vector<layout::Layout>& clips;
  const std::vector<core::LdmoResult>& results;  ///< index-aligned with clips
  bool smoke = false;                            ///< one repetition each
};

/// Adds the litho.*, fft.*, opc.*_ms, mpl.generate_ms, core.* and
/// nn.forward_ms metrics (medians over repetitions).
void measure_layers(const LayerInputs& in, RunResult& out);

}  // namespace ldmo::perfbench

// The benchmark's workloads. Each sets itself up (setup_s), then runs the
// end-to-end measurement or, with --trace 1, the per-layer one.
#pragma once

#include "common.h"

namespace ldmo::perfbench {

/// A warm FlowEngine session over distinct clips, one clip at a time.
struct FlowSpec {
  litho::LithoConfig litho;
  bool cnn = false;   ///< rank with the seeded CNN instead of RawPrint
  int threads = 1;    ///< process thread budget
};

RunResult run_flow(const FlowSpec& spec, const Args& args);

/// An in-process serve::Server under skewed closed-loop load.
RunResult run_serve(const Args& args);

}  // namespace ldmo::perfbench

// Pluggable ILT parameter-field initializer interface.
//
// The paper-faithful cold start initializes the P fields at +/- initial_p
// from the decomposition raster. A MaskInitializer supplies an alternative
// continuous initialization — in practice the learned `warmstart` MaskNet
// prediction — without the flow layer depending on the network code:
// `ldmo_warmstart` links `ldmo_core` (its harvester replays the flow), so
// the flow only ever sees this interface, injected from above.
//
// Implementations must be safe to call from multiple threads concurrently
// (the serving layer shares one instance across dispatcher engines); guard
// any stateful model internals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/grid.h"
#include "layout/layout.h"

namespace ldmo::core {

class MaskInitializer {
 public:
  virtual ~MaskInitializer() = default;

  /// Stable id used in reports and span attributes.
  virtual std::string name() const = 0;

  /// Fingerprint of the underlying model weights. Folded into the serve
  /// config fingerprint so cached results retire when weights are swapped.
  virtual std::uint64_t version() const = 0;

  /// Grid resolution the initializer produces; must match the simulator.
  virtual int grid_size() const = 0;

  /// Fills every grid of `fields` (one per mask; the flow sizes it to the
  /// ILT engine's mask count) with a grid_size x grid_size continuous
  /// P-field seed for the given decomposition. Throws FlowException (stage
  /// kPredict) on failure, including a mask count the model does not
  /// produce; the flow then degrades that attempt to the cold init.
  virtual void seed(const layout::Layout& layout,
                    const layout::Assignment& assignment,
                    std::vector<GridF>& fields) const = 0;
};

}  // namespace ldmo::core

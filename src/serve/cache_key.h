// Content-address computation for the serving caches.
//
// A result-cache key must change whenever anything that could change the
// produced masks changes: the layout geometry OR any flow configuration
// knob (optics, resist, metrology, generation, ILT hyperparameters, the
// predictor that ranks candidates). Two keys:
//
//   result key = H(version, config fingerprint, layout fingerprint)
//   score  key = H(version, config fingerprint, layout fingerprint,
//                  candidate assignment)
//
// Layout names are deliberately excluded (layout::fingerprint hashes
// geometry only): the same clip submitted under two names is the same
// work. Hashing the geometry is equivalent to hashing the raster the CNN
// and simulator consume, because rasterization is a pure function of
// geometry + config — and the config is already in the key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/flow_engine.h"
#include "layout/layout.h"

namespace ldmo::serve {

/// Fingerprint of every configuration field that can affect a flow result.
/// `predictor_name` folds the candidate-ranking model identity in (swap
/// the predictor, invalidate the cache). `warm_start_version` is the
/// MaskInitializer weight fingerprint (0 when no initializer is
/// installed): with the warm-start flag on, retraining the seed model
/// changes the produced masks, so it must retire every cached result.
std::uint64_t config_fingerprint(const core::FlowEngineConfig& config,
                                 const std::string& predictor_name,
                                 std::uint64_t warm_start_version = 0);

/// Result-tier key: one full LdmoResult per (config, layout geometry).
std::uint64_t result_cache_key(std::uint64_t config_fp,
                               const layout::Layout& layout);

/// Score-tier key: one predicted score per (config, layout geometry,
/// candidate assignment).
std::uint64_t score_cache_key(std::uint64_t config_fp,
                              std::uint64_t layout_fp,
                              const layout::Assignment& assignment);

/// A binarized mask stored one bit per pixel (row-major, LSB first): a
/// 64 px mask takes 512 bytes instead of the 32 KiB of its GridF.
struct PackedMask {
  int height = 0;
  int width = 0;
  std::vector<std::uint64_t> bits;
};

/// A result-tier entry. The final masks are binarized, so they are kept
/// packed; a mask holding any value but +0.0 or 1.0 stays in `result`
/// as is. unpack_result() rebuilds the stored LdmoResult bit for bit.
struct CachedResult {
  core::LdmoResult result;  ///< mask1/mask2 empty where packed
  std::optional<PackedMask> mask1;
  std::optional<PackedMask> mask2;
};

CachedResult pack_result(core::LdmoResult result);
core::LdmoResult unpack_result(CachedResult cached);

/// Approximate resident footprint of a cached result, for the cache's byte
/// budget (grids dominate; trajectory rows and the report are counted too).
std::size_t estimated_bytes(const CachedResult& cached);

}  // namespace ldmo::serve

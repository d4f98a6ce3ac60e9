// Seeded corruption sweep shared by the file-decoder tests.
//
// Given the bytes of one valid file, for_each_mutation() hands the
// visitor every truncation of it and every single-byte ^0xFF flip. Files
// over 4 KiB get 512 truncation lengths and 512 flip offsets drawn from a
// fixed-seed Rng instead, so the sweep stays inside the sanitizer budget
// while still reaching the payload, not only the header.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace ldmo::corruption {

inline std::vector<std::size_t> sweep_offsets(std::size_t size) {
  constexpr std::size_t kFullSweepBytes = 4096;
  constexpr std::size_t kSampledOffsets = 512;
  std::vector<std::size_t> offsets;
  if (size <= kFullSweepBytes) {
    for (std::size_t i = 0; i < size; ++i) offsets.push_back(i);
    return offsets;
  }
  Rng rng(0x5EED0F11E5ULL);
  for (std::size_t i = 0; i < kSampledOffsets; ++i)
    offsets.push_back(rng.index(size));
  return offsets;
}

/// Calls visit(mutated) for each truncation, then each byte flip, of
/// `bytes` (any contiguous byte container).
template <typename Bytes, typename Visit>
void for_each_mutation(const Bytes& bytes, Visit&& visit) {
  const std::vector<std::size_t> offsets = sweep_offsets(bytes.size());
  for (std::size_t length : offsets)
    visit(Bytes(bytes.begin(),
                bytes.begin() + static_cast<std::ptrdiff_t>(length)));
  for (std::size_t offset : offsets) {
    Bytes flipped = bytes;
    flipped[offset] = static_cast<typename Bytes::value_type>(
        static_cast<unsigned char>(flipped[offset]) ^ 0xFFu);
    visit(flipped);
  }
}

}  // namespace ldmo::corruption

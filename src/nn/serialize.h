// Binary weight serialization.
//
// Format: u32 magic, u64 parameter count, then per parameter its u64
// element count and raw float payload, all in host byte order. Decoding
// checks that the layout matches the network it is loaded into, and that
// the size matches that layout exactly (truncated payloads and trailing
// garbage are rejected), before it copies any value. encode/decode work in
// memory; save/load wrap them with common::write_file_atomic / read_file.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace ldmo::nn {

/// Serializes all parameter values. Runs the "nn.save" failpoint first.
std::vector<std::uint8_t> encode_parameters(
    const std::vector<Parameter*>& parameters);

/// Loads an encode_parameters blob into the given (already constructed)
/// parameter list. Runs the "nn.load" failpoint first; on a layout
/// mismatch throws ldmo::Error naming `source`, parameters untouched.
void decode_parameters(const std::vector<Parameter*>& parameters,
                       std::span<const std::uint8_t> bytes,
                       const std::string& source);

/// encode_parameters into `path` via common::write_file_atomic: a failed
/// save leaves any previous file at `path` intact.
void save_parameters(const std::vector<Parameter*>& parameters,
                     const std::string& path);

/// decode_parameters from the bytes of `path`.
void load_parameters(const std::vector<Parameter*>& parameters,
                     const std::string& path);

}  // namespace ldmo::nn

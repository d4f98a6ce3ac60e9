#include "nn/serialize.h"

#include <cstring>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/file.h"

namespace ldmo::nn {
namespace {
constexpr std::uint32_t kMagic = 0x4C444D4F;  // "LDMO"
constexpr std::uint64_t kHeaderBytes =
    sizeof(std::uint32_t) + sizeof(std::uint64_t);

/// Bytes a well-formed blob for this parameter list must occupy, exactly.
std::uint64_t expected_bytes(const std::vector<Parameter*>& parameters) {
  std::uint64_t total = kHeaderBytes;
  for (const Parameter* p : parameters) {
    require(p != nullptr, "serialize: null parameter");
    total += sizeof(std::uint64_t) +
             static_cast<std::uint64_t>(p->value.size()) * sizeof(float);
  }
  return total;
}

std::uint64_t load_u64(const std::uint8_t* in) {
  std::uint64_t value = 0;
  std::memcpy(&value, in, sizeof(value));
  return value;
}

}  // namespace

std::vector<std::uint8_t> encode_parameters(
    const std::vector<Parameter*>& parameters) {
  fail::maybe_fail("nn.save", FlowStage::kPredict);
  std::vector<std::uint8_t> bytes(expected_bytes(parameters));
  std::uint8_t* out = bytes.data();
  const auto put = [&out](const void* src, std::size_t n) {
    std::memcpy(out, src, n);
    out += n;
  };
  const std::uint32_t magic = kMagic;
  const std::uint64_t count = parameters.size();
  put(&magic, sizeof(magic));
  put(&count, sizeof(count));
  for (const Parameter* p : parameters) {
    const std::uint64_t elements = p->value.size();
    put(&elements, sizeof(elements));
    put(p->value.data(), elements * sizeof(float));
  }
  return bytes;
}

void decode_parameters(const std::vector<Parameter*>& parameters,
                       std::span<const std::uint8_t> bytes,
                       const std::string& source) {
  fail::maybe_fail("nn.load", FlowStage::kPredict);
  // Bound everything against the actual size up front: a corrupt header
  // cannot ask for more bytes than exist, and trailing garbage after the
  // last tensor is rejected instead of silently ignored.
  require(bytes.size() >= kHeaderBytes,
          "decode_parameters: truncated header in " + source);
  const std::uint64_t expected = expected_bytes(parameters);
  require(bytes.size() >= expected,
          "decode_parameters: truncated " + source);
  require(bytes.size() <= expected,
          "decode_parameters: trailing bytes after last tensor in " + source);

  std::uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  require(magic == kMagic,
          "decode_parameters: not an LDMO weight file: " + source);
  const std::uint64_t count = load_u64(bytes.data() + sizeof(magic));
  require(count == parameters.size(),
          "decode_parameters: parameter count mismatch (" + source +
              " has " + std::to_string(count) + ", network has " +
              std::to_string(parameters.size()) + ")");
  // Every element count must match before any value is copied, so a blob
  // for another architecture never half-loads a live network.
  std::size_t offset = kHeaderBytes;
  for (const Parameter* p : parameters) {
    require(load_u64(bytes.data() + offset) == p->value.size(),
            "decode_parameters: parameter size mismatch in " + source);
    offset += sizeof(std::uint64_t) + p->value.size() * sizeof(float);
  }
  offset = kHeaderBytes;
  for (Parameter* p : parameters) {
    offset += sizeof(std::uint64_t);
    std::memcpy(p->value.data(), bytes.data() + offset,
                p->value.size() * sizeof(float));
    offset += p->value.size() * sizeof(float);
  }
}

void save_parameters(const std::vector<Parameter*>& parameters,
                     const std::string& path) {
  common::write_file_atomic(path, encode_parameters(parameters));
}

void load_parameters(const std::vector<Parameter*>& parameters,
                     const std::string& path) {
  decode_parameters(parameters, common::read_file(path), path);
}

}  // namespace ldmo::nn

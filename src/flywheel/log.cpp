#include "flywheel/log.h"

#include <bit>
#include <cstring>

#include "common/error.h"
#include "common/failpoint.h"

namespace ldmo::flywheel {
namespace {

std::size_t image_bytes(std::uint32_t image_size) {
  return static_cast<std::size_t>(image_size) * image_size * sizeof(float);
}

std::size_t payload_bytes(std::uint32_t image_size) {
  return image_bytes(image_size) + sizeof(std::uint64_t);
}

// Heal: a crash mid-append costs the newest pair, never the whole log.
constexpr common::RecordFormat kFormat{"flywheel log",
                                   {'L', 'D', 'M', 'O', 'F', 'W', 'L', '1'},
                                   "image size",
                                   payload_bytes,
                                   common::TailPolicy::kHeal};

}  // namespace

std::size_t training_log_record_bytes(int image_size) {
  return common::record_bytes(kFormat, static_cast<std::uint32_t>(image_size));
}

TrainingLogWriter::TrainingLogWriter(std::string path, int image_size)
    : log_(std::move(path), kFormat, static_cast<std::uint32_t>(image_size)) {}

void TrainingLogWriter::append(const TrainingPair& pair) {
  const std::size_t n = static_cast<std::size_t>(image_size()) * image_size();
  require(pair.image.size() == n,
          "TrainingLogWriter::append: image size does not match header");
  fail::maybe_fail("flywheel.log.append", FlowStage::kCache);
  std::vector<std::uint8_t> payload(payload_bytes(log_.dimension()));
  std::memcpy(payload.data(), pair.image.data(), n * sizeof(float));
  common::store_le(payload.data() + n * sizeof(float),
                   std::bit_cast<std::uint64_t>(pair.score), 8);
  log_.append(payload);
}

TrainingLog read_training_log(const std::string& path) {
  TrainingLog log;
  const common::RecordLogInfo info = common::read_record_log(
      path, kFormat, [&](std::span<const std::uint8_t> payload) {
        const std::size_t image = payload.size() - sizeof(std::uint64_t);
        TrainingPair& pair = log.pairs.emplace_back();
        pair.image.resize(image / sizeof(float));
        std::memcpy(pair.image.data(), payload.data(), image);
        pair.score =
            std::bit_cast<double>(common::load_le(payload.data() + image, 8));
      });
  log.image_size = static_cast<int>(info.dimension);
  log.torn_tail = info.torn_tail;
  return log;
}

std::size_t training_log_record_count(const std::string& path) {
  return common::read_record_log(path, kFormat).records;
}

}  // namespace ldmo::flywheel

#include "warmstart/corpus.h"

#include <cstring>

#include "common/error.h"

namespace ldmo::warmstart {
namespace {

constexpr int kPlanes = 5;

std::size_t payload_bytes(std::uint32_t grid_size) {
  return kPlanes * static_cast<std::size_t>(grid_size) * grid_size *
         sizeof(float);
}

// Strict: a corrupt corpus never trains a model halfway.
constexpr common::RecordFormat kFormat{"warmstart corpus",
                                   {'L', 'D', 'M', 'O', 'W', 'S', 'C', '1'},
                                   "grid size",
                                   payload_bytes,
                                   common::TailPolicy::kStrict};

}  // namespace

CorpusWriter::CorpusWriter(std::string path, int grid_size)
    : log_(std::move(path), kFormat, static_cast<std::uint32_t>(grid_size)) {}

void CorpusWriter::append(const ClipRecord& record) {
  const std::size_t n = static_cast<std::size_t>(grid_size()) * grid_size();
  std::vector<std::uint8_t> payload(payload_bytes(log_.dimension()));
  std::uint8_t* out = payload.data();
  for (const std::vector<float>* plane : {&record.target, &record.raster1,
                                          &record.raster2, &record.mask1,
                                          &record.mask2}) {
    require(plane->size() == n,
            "CorpusWriter::append: plane size does not match grid");
    std::memcpy(out, plane->data(), n * sizeof(float));
    out += n * sizeof(float);
  }
  log_.append(payload);
}

Corpus read_corpus(const std::string& path) {
  Corpus corpus;
  const common::RecordLogInfo info = common::read_record_log(
      path, kFormat, [&](std::span<const std::uint8_t> payload) {
        const std::size_t n = payload.size() / (kPlanes * sizeof(float));
        const std::uint8_t* in = payload.data();
        ClipRecord& record = corpus.records.emplace_back();
        for (std::vector<float>* plane : {&record.target, &record.raster1,
                                          &record.raster2, &record.mask1,
                                          &record.mask2}) {
          plane->resize(n);
          std::memcpy(plane->data(), in, n * sizeof(float));
          in += n * sizeof(float);
        }
      });
  corpus.grid_size = static_cast<int>(info.dimension);
  return corpus;
}

std::size_t corpus_record_count(const std::string& path) {
  return common::read_record_log(path, kFormat).records;
}

}  // namespace ldmo::warmstart

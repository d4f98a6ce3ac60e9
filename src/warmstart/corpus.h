// Append-only binary training corpus for the warm-start MaskNet.
//
// One file holds clips at a fixed grid resolution, framed by the common
// record log (common/file.h): magic "LDMOWSC1" + u32 grid_size, then one
// record per clip whose payload is 5 float32 planes of grid_size^2 each,
// in order target, raster1, raster2, mask1, mask2.
//
// The corpus uses the strict tail policy: a file whose size is not header
// + k * record, or any record whose checksum does not match (torn append,
// bit rot), is rejected outright. The harvester appends with CorpusWriter;
// training reads the whole file with read_corpus. No index, no compaction
// — the corpus is write-once data that retrains a model, not a database.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/file.h"

namespace ldmo::warmstart {

/// One harvested training triple, flattened row-major (grid^2 floats per
/// plane): the rasterized target, the two decomposition mask rasters, and
/// the two ILT-optimized binary masks the flow produced for them.
struct ClipRecord {
  std::vector<float> target;
  std::vector<float> raster1;
  std::vector<float> raster2;
  std::vector<float> mask1;
  std::vector<float> mask2;
};

/// A fully validated in-memory corpus.
struct Corpus {
  int grid_size = 0;
  std::vector<ClipRecord> records;
};

/// Appends records to `path`, creating the file (with header) when absent.
/// Opening an existing file validates its header against `grid_size` and
/// refuses a torn or corrupt final record (the reader's strict rule).
class CorpusWriter {
 public:
  CorpusWriter(std::string path, int grid_size);

  /// Appends one record (all planes must be grid_size^2). Throws on I/O
  /// failure; the flush happens per append so a crash loses at most the
  /// record being written — which the strict reader then rejects by size.
  void append(const ClipRecord& record);

  int grid_size() const { return static_cast<int>(log_.dimension()); }
  std::size_t appended() const { return log_.appended(); }
  const std::string& path() const { return log_.path(); }

 private:
  common::RecordLogWriter log_;
};

/// Reads and validates an entire corpus file. Throws ldmo::Error on bad
/// magic, bad grid size, a size that is not a whole number of records, or
/// any checksum mismatch — a corrupt corpus never trains a model halfway.
Corpus read_corpus(const std::string& path);

/// Record count of a corpus file without reading the payload (header,
/// size and final-record validation only).
std::size_t corpus_record_count(const std::string& path);

}  // namespace ldmo::warmstart

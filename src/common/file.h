// The one file layer for state kept across processes: whole-file reads,
// crash-safe whole-file writes, and the append-only record log that the
// warm-start corpus and the flywheel training log are built on.
//
// Record log layout: an 8-byte magic and a u32 little-endian dimension
// (8..4096), then fixed-size records, each payload_bytes(dimension) bytes
// followed by the u64 little-endian FNV-1a checksum of those bytes. The
// count derives from the file size. One tail rule, shared by the reader and
// by a writer reopening the file, judges a partial final record or a final
// record whose checksum fails:
//
//   kStrict  refuses the whole file (throws).
//   kHeal    treats it as a torn append: the reader drops it and reports
//            torn_tail, a reopening writer truncates it away, so the next
//            append lands after the last record the reader trusts.
//
// A checksum mismatch before the final record is bit rot and throws on read
// under either policy. Every failure throws ldmo::Error naming the file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace ldmo::common {

/// Reads the whole file. Throws when it cannot be opened.
std::vector<std::uint8_t> read_file(const std::string& path);

/// Writes `bytes` to `path + ".tmp"`, flushes it and renames it over
/// `path`, so a crash mid-write never destroys the previous file. On
/// failure the tmp file is removed and `path` is left untouched.
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

/// Little-endian integer of `width` bytes at `out` / from `in`.
void store_le(std::uint8_t* out, std::uint64_t value, int width);
std::uint64_t load_le(const std::uint8_t* in, int width);

enum class TailPolicy { kStrict, kHeal };

/// Everything the record log needs to know about one file format.
struct RecordFormat {
  const char* name;       ///< message prefix, e.g. "warmstart corpus"
  char magic[8];
  const char* dimension;  ///< what the header's u32 is, e.g. "grid size"
  std::size_t (*payload_bytes)(std::uint32_t dimension);
  TailPolicy tail;
};

/// On-disk bytes of one record: payload plus checksum.
std::size_t record_bytes(const RecordFormat& format, std::uint32_t dimension);

struct RecordLogInfo {
  std::uint32_t dimension = 0;
  std::size_t records = 0;  ///< records the tail rule keeps
  bool torn_tail = false;   ///< kHeal dropped a partial or bad final record
};

/// Validates the header and applies the tail rule, then passes every kept
/// record's checksum-verified payload to `visit`, in order. Without a
/// visitor only the header and the final record are read.
RecordLogInfo read_record_log(
    const std::string& path, const RecordFormat& format,
    const std::function<void(std::span<const std::uint8_t>)>& visit = {});

class RecordLogWriter {
 public:
  /// Creates `path` with a header when it is absent or empty. Otherwise
  /// checks the header against `dimension` and applies the tail rule;
  /// under kHeal a torn tail is truncated away.
  RecordLogWriter(std::string path, const RecordFormat& format,
                  std::uint32_t dimension);

  /// Appends one payload_bytes(dimension) record and its checksum, then
  /// flushes, so a crash loses at most the record being written.
  void append(std::span<const std::uint8_t> payload);

  const std::string& path() const { return path_; }
  std::uint32_t dimension() const { return dimension_; }
  std::size_t appended() const { return appended_; }

 private:
  std::string path_;
  RecordFormat format_;
  std::uint32_t dimension_;
  std::size_t appended_ = 0;
};

}  // namespace ldmo::common

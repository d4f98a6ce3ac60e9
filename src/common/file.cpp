#include "common/file.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/error.h"
#include "common/hash.h"
#include "common/log.h"

namespace ldmo::common {
namespace {

constexpr std::size_t kMagicBytes = sizeof(RecordFormat::magic);
constexpr std::size_t kHeaderBytes = kMagicBytes + 4;
constexpr std::size_t kChecksumBytes = 8;
constexpr std::uint32_t kMinDimension = 8;
constexpr std::uint32_t kMaxDimension = 4096;

std::string prefix(const RecordFormat& format) {
  return std::string(format.name) + ": ";
}

/// Reads the record at the stream position into `payload` (already sized);
/// returns whether its stored checksum matches.
bool read_record(std::istream& in, std::vector<std::uint8_t>& payload,
                 const std::string& path, const RecordFormat& format) {
  std::uint8_t stored[kChecksumBytes];
  in.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  in.read(reinterpret_cast<char*>(stored), sizeof(stored));
  require(in.good(), prefix(format) + "short read in " + path);
  return load_le(stored, 8) == fnv1a(payload.data(), payload.size());
}

std::string mismatch(const RecordFormat& format, std::size_t record,
                     const std::string& path) {
  return prefix(format) + "checksum mismatch in record " +
         std::to_string(record) + " of " + path;
}

/// Opens `path`, validates the header and applies the tail rule. Leaves
/// `in` at the first record; `file_bytes` gets the file size.
RecordLogInfo open_log(std::ifstream& in, const std::string& path,
                       const RecordFormat& format, std::size_t& file_bytes) {
  in.open(path, std::ios::binary | std::ios::ate);
  require(in.good(), prefix(format) + "cannot open " + path);
  file_bytes = static_cast<std::size_t>(in.tellg());
  require(file_bytes >= kHeaderBytes,
          prefix(format) + "file shorter than header: " + path);
  in.seekg(0);
  std::uint8_t header[kHeaderBytes];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  require(in.good() && std::memcmp(header, format.magic, kMagicBytes) == 0,
          prefix(format) + "bad magic in " + path);
  RecordLogInfo info;
  info.dimension = static_cast<std::uint32_t>(load_le(header + kMagicBytes, 4));
  require(info.dimension >= kMinDimension && info.dimension <= kMaxDimension,
          prefix(format) + "implausible " + format.dimension + " in " + path);

  const std::size_t record = record_bytes(format, info.dimension);
  info.records = (file_bytes - kHeaderBytes) / record;
  info.torn_tail = (file_bytes - kHeaderBytes) % record != 0;
  require(!info.torn_tail || format.tail == TailPolicy::kHeal,
          prefix(format) +
              "size is not a whole number of records (truncated or torn "
              "append): " + path);
  if (info.records > 0) {
    // A torn append can also stop exactly on a record boundary; only the
    // final record's checksum tells.
    std::vector<std::uint8_t> last(format.payload_bytes(info.dimension));
    in.seekg(static_cast<std::streamoff>(kHeaderBytes +
                                         (info.records - 1) * record));
    if (!read_record(in, last, path, format)) {
      require(format.tail == TailPolicy::kHeal,
              mismatch(format, info.records - 1, path));
      --info.records;
      info.torn_tail = true;
    }
    in.seekg(static_cast<std::streamoff>(kHeaderBytes));
  }
  return info;
}

}  // namespace

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "cannot open " + path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
      out.flush();
      require(out.good(), "cannot write " + tmp);
    }
    require(std::rename(tmp.c_str(), path.c_str()) == 0,
            "cannot rename " + tmp + " to " + path);
  } catch (...) {
    std::remove(tmp.c_str());  // best effort; `path` is untouched
    throw;
  }
}

void store_le(std::uint8_t* out, std::uint64_t value, int width) {
  for (int i = 0; i < width; ++i)
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

std::uint64_t load_le(const std::uint8_t* in, int width) {
  std::uint64_t value = 0;
  for (int i = 0; i < width; ++i)
    value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return value;
}

std::size_t record_bytes(const RecordFormat& format, std::uint32_t dimension) {
  return format.payload_bytes(dimension) + kChecksumBytes;
}

RecordLogInfo read_record_log(
    const std::string& path, const RecordFormat& format,
    const std::function<void(std::span<const std::uint8_t>)>& visit) {
  std::ifstream in;
  std::size_t file_bytes = 0;
  const RecordLogInfo info = open_log(in, path, format, file_bytes);
  if (!visit || info.records == 0) return info;
  std::vector<std::uint8_t> payload(format.payload_bytes(info.dimension));
  for (std::size_t r = 0; r < info.records; ++r) {
    require(read_record(in, payload, path, format), mismatch(format, r, path));
    visit(payload);
  }
  return info;
}

RecordLogWriter::RecordLogWriter(std::string path, const RecordFormat& format,
                                 std::uint32_t dimension)
    : path_(std::move(path)), format_(format), dimension_(dimension) {
  require(dimension_ >= kMinDimension && dimension_ <= kMaxDimension,
          prefix(format_) + "implausible " + format_.dimension);
  std::error_code ec;
  if (std::filesystem::file_size(path_, ec) > 0 && !ec) {
    std::ifstream in;
    std::size_t file_bytes = 0;
    const RecordLogInfo info = open_log(in, path_, format_, file_bytes);
    require(info.dimension == dimension_,
            prefix(format_) + "existing file " + path_ + " has " +
                format_.dimension + " " + std::to_string(info.dimension) +
                ", expected " + std::to_string(dimension_));
    const std::size_t kept =
        kHeaderBytes + info.records * record_bytes(format_, dimension_);
    if (kept != file_bytes) {
      log_warn(format_.name, ": truncating torn tail of ", path_, " (",
               file_bytes - kept, " bytes)");
      in.close();
      std::filesystem::resize_file(path_, kept);
    }
    return;  // header already present, appends go to the end
  }
  std::uint8_t header[kHeaderBytes];
  std::memcpy(header, format_.magic, kMagicBytes);
  store_le(header + kMagicBytes, dimension_, 4);
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.flush();
  require(out.good(), prefix(format_) + "cannot create " + path_);
}

void RecordLogWriter::append(std::span<const std::uint8_t> payload) {
  require(payload.size() == format_.payload_bytes(dimension_),
          prefix(format_) + "record size does not match the header");
  std::uint8_t checksum[kChecksumBytes];
  store_le(checksum, fnv1a(payload.data(), payload.size()), 8);
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  out.write(reinterpret_cast<const char*>(checksum), sizeof(checksum));
  out.flush();
  require(out.good(), prefix(format_) + "append failed for " + path_);
  ++appended_;
}

}  // namespace ldmo::common

#include "store/wal.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "core/serialize.hpp"  // crc32
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/bytes.hpp"
#include "support/faulty_file.hpp"
#include "support/fsyncutil.hpp"

namespace pufatt::store {

namespace {

namespace fs = std::filesystem;
using support::load_le32;
using support::load_le64;

/// Shared geometry of every store.* latency histogram: 1 us first edge,
/// ×4 per bucket, 10 buckets (≈ up to 262 ms, unbounded tail above).
const support::LogScale& store_scale() {
  static const support::LogScale scale{1.0, 4.0, 10};
  return scale;
}

double us_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::monotonic_ns() - start_ns) / 1000.0;
}

/// "<path> at byte <off>" — every frame-level corruption error carries
/// the segment path and frame offset so a refused-to-open store is
/// diagnosable from the exception alone.
std::string at_byte(const std::string& path, std::uint64_t off) {
  return path + " at byte " + std::to_string(off);
}

/// Parses "wal-NNNNNNNN.log"; returns false on any other filename.
bool parse_segment_index(const std::string& name, std::uint64_t& index) {
  if (name.size() != 16 || name.rfind("wal-", 0) != 0 ||
      name.substr(12) != ".log") {
    return false;
  }
  index = 0;
  for (std::size_t i = 4; i < 12; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    index = index * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return true;
}

struct SegmentScan {
  std::vector<WalRecord> records;
  std::uint64_t valid_bytes = 0;  ///< clean prefix length (header included)
  bool torn = false;              ///< only ever true for the final segment
};

/// Frame-parse loop of a segment scan: walks frames from `off`, extending
/// `scan.valid_bytes` past each verified frame.  `tolerate_torn` selects
/// whether a short frame at the end is a clean cut point (final segment)
/// or corruption; complete-but-corrupt frames always throw, with the
/// segment path and frame byte offset in the message.
void parse_frames(const std::vector<std::uint8_t>& bytes, std::size_t off,
                  const std::string& path, std::uint64_t segment_index,
                  bool tolerate_torn, bool collect, SegmentScan& scan) {
  scan.valid_bytes = off;
  while (off < bytes.size()) {
    const std::size_t remaining = bytes.size() - off;
    if (remaining < kRecordOverheadBytes) {
      if (!tolerate_torn) {
        throw StoreError("truncated record in non-final WAL segment: " +
                         at_byte(path, off));
      }
      scan.torn = true;
      break;
    }
    if (load_le32(bytes.data() + off) != kRecordMagic) {
      throw StoreError("bad WAL record magic (corrupt log): " +
                       at_byte(path, off));
    }
    const std::uint32_t type = load_le32(bytes.data() + off + 4);
    const std::uint32_t len = load_le32(bytes.data() + off + 8);
    if (len > kMaxRecordPayload) {
      throw StoreError("WAL record payload exceeds sanity bound: " +
                       at_byte(path, off));
    }
    const std::size_t need = kRecordOverheadBytes + len;
    if (remaining < need) {
      if (!tolerate_torn) {
        throw StoreError("truncated record in non-final WAL segment: " +
                         at_byte(path, off));
      }
      scan.torn = true;  // crash mid-append: the clean shutdown point
      break;
    }
    const std::uint32_t stored = load_le32(bytes.data() + off + 12 + len);
    if (core::crc32(bytes.data() + off, 12 + len) != stored) {
      throw StoreError("WAL record CRC mismatch (corrupt log): " +
                       at_byte(path, off));
    }
    if (collect) {
      WalRecord record;
      record.type = type;
      record.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(off + 12),
                            bytes.begin() +
                                static_cast<std::ptrdiff_t>(off + 12 + len));
      record.origin_segment = segment_index;
      record.origin_offset = off;
      scan.records.push_back(std::move(record));
    }
    off += need;
    scan.valid_bytes = off;
  }
}

/// Validates the 16-byte segment header against the index the filename
/// claims.  Returns false for the tolerated short-final-segment case
/// (crash between creation and the header landing), throws on mismatch.
bool check_segment_header(const std::vector<std::uint8_t>& bytes,
                          const std::string& path, std::uint64_t expect_index,
                          bool final_segment, SegmentScan& scan) {
  if (bytes.size() < kSegmentHeaderBytes) {
    if (!final_segment) {
      throw StoreError("WAL segment header truncated: " + path);
    }
    scan.torn = !bytes.empty();
    return false;
  }
  if (std::memcmp(bytes.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    throw StoreError("bad WAL segment magic: " + path);
  }
  if (load_le64(bytes.data() + 8) != expect_index) {
    throw StoreError("WAL segment index does not match filename: " + path);
  }
  return true;
}

/// Applies the torn-tail rule to one segment.  `final_segment` selects
/// whether a short read at the end is a clean shutdown point (accepted)
/// or corruption (thrown); everything else throws identically.
SegmentScan scan_segment(const std::string& path, std::uint64_t expect_index,
                         bool final_segment, bool collect) {
  std::vector<std::uint8_t> bytes;
  if (!support::read_file(path, bytes)) {
    throw StoreError("cannot open WAL segment " + path);
  }
  SegmentScan scan;
  if (!check_segment_header(bytes, path, expect_index, final_segment, scan)) {
    return scan;
  }
  parse_frames(bytes, kSegmentHeaderBytes, path, expect_index,
               /*tolerate_torn=*/final_segment, collect, scan);
  return scan;
}

}  // namespace

std::string wal_segment_file(std::uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08llu.log",
                static_cast<unsigned long long>(index));
  return name;
}

std::vector<std::string> wal_segment_paths(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::uint64_t index = 0;
    if (entry.is_regular_file() &&
        parse_segment_index(entry.path().filename().string(), index)) {
      found.emplace_back(index, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  for (std::size_t i = 1; i < found.size(); ++i) {
    if (found[i].first == found[i - 1].first) {
      throw StoreError("duplicate WAL segment index in " + dir);
    }
  }
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [index, path] : found) paths.push_back(std::move(path));
  return paths;
}

WalReadResult read_wal(const std::string& dir,
                       std::uint64_t skip_through_index) {
  WalReadResult result;
  const auto paths = wal_segment_paths(dir);
  std::uint64_t prev_index = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::uint64_t index = 0;
    parse_segment_index(fs::path(paths[i]).filename().string(), index);
    if (index <= skip_through_index) {
      // Folded into the snapshot whose watermark the caller passed; may be
      // a stale leftover of an interrupted compaction.  Never replayed.
      ++result.segments_skipped;
      continue;
    }
    // Rotation, restart_segments, and compaction all produce consecutive
    // surviving indices, so a gap here is a vanished segment — silently
    // lost records, not something replay may paper over.
    const std::uint64_t expect_after =
        result.segments == 0 ? skip_through_index : prev_index;
    if (expect_after != 0 && index != expect_after + 1) {
      throw StoreError("missing WAL segment in " + dir + ": expected " +
                       wal_segment_file(expect_after + 1) + ", found " +
                       wal_segment_file(index));
    }
    prev_index = index;
    ++result.segments;
    // Indices sort with the paths, so the last path is also the last
    // surviving segment — the only one the torn-tail rule applies to.
    const bool final_segment = i + 1 == paths.size();
    auto scan = scan_segment(paths[i], index, final_segment, /*collect=*/true);
    result.bytes += fs::file_size(paths[i]);
    if (final_segment) result.torn_tail = scan.torn;
    for (auto& record : scan.records) {
      result.records.push_back(std::move(record));
    }
  }
  return result;
}

WalWriter::WalWriter(std::string dir, const WalOptions& options)
    : dir_(std::move(dir)),
      options_(options),
      appends_(obs::global_registry().counter("store.wal.appends")),
      append_bytes_(obs::global_registry().counter("store.wal.append_bytes")),
      syncs_(obs::global_registry().counter("store.wal.syncs")),
      rotations_(obs::global_registry().counter("store.wal.rotations")),
      append_us_(obs::global_registry().histogram("store.wal.append_us",
                                                  store_scale())),
      sync_us_(obs::global_registry().histogram("store.wal.sync_us",
                                                store_scale())) {
  fs::create_directories(dir_);
  std::vector<std::string> paths;
  bool deleted_stale = false;
  for (auto& path : wal_segment_paths(dir_)) {
    std::uint64_t index = 0;
    parse_segment_index(fs::path(path).filename().string(), index);
    if (index < options_.min_segment_index) {
      // Below the snapshot watermark: folded, possibly a stale leftover of
      // an interrupted compaction whose deletion never finished.  Recovery
      // already skipped it; finish the deletion now.
      support::io_remove(path.c_str());
      deleted_stale = true;
      continue;
    }
    paths.push_back(std::move(path));
  }
  if (deleted_stale) support::fsync_dir(dir_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (paths.empty()) {
    open_segment_locked(options_.min_segment_index);
    return;
  }
  // Resume: validate the tail segment and truncate any torn append away,
  // so new records extend the clean prefix.
  std::uint64_t index = 0;
  parse_segment_index(fs::path(paths.back()).filename().string(), index);
  const auto scan =
      scan_segment(paths.back(), index, /*final_segment=*/true,
                   /*collect=*/false);
  if (scan.valid_bytes < kSegmentHeaderBytes) {
    // Crash before the header landed: rewrite the segment from scratch.
    open_segment_locked(index);
    return;
  }
  fs::resize_file(paths.back(), scan.valid_bytes);
  file_ = support::io_fopen(paths.back().c_str(), "ab");
  if (file_ == nullptr) {
    throw StoreError("cannot reopen WAL segment " + paths.back());
  }
  segment_index_ = index;
  segment_bytes_ = scan.valid_bytes;
}

WalWriter::~WalWriter() {
  std::lock_guard<std::mutex> lock(mutex_);
  try {
    if (file_ != nullptr) sync_locked();
  } catch (const StoreError&) {
    // Destructor must not throw; the data at risk is only the unsynced
    // tail, which the torn-tail reader rule already tolerates.
  }
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

void WalWriter::require_open_locked() const {
  if (file_ == nullptr) {
    // A failed rotation (open_segment_locked threw) leaves no current
    // segment; refuse cleanly instead of fwrite/fileno on a null stream.
    throw StoreError("WAL writer failed (no open segment) in " + dir_);
  }
}

void WalWriter::open_segment_locked(std::uint64_t index) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  const std::string path = dir_ + "/" + wal_segment_file(index);
  file_ = support::io_fopen(path.c_str(), "wb");
  if (file_ == nullptr) throw StoreError("cannot create WAL segment " + path);
  support::ByteWriter header(kSegmentHeaderBytes);
  header.raw(kSegmentMagic, sizeof(kSegmentMagic));
  header.u64(index);
  if (support::io_fwrite(header.data(), header.size(), file_) !=
      header.size()) {
    // Never leave a half-headed segment behind as the current file: later
    // appends would land after the partial header and the reader would
    // misclassify them as a torn tail (silent data loss).
    std::fclose(file_);
    file_ = nullptr;
    support::io_remove(path.c_str());
    throw StoreError("cannot write WAL segment header: " + path);
  }
  segment_index_ = index;
  segment_bytes_ = kSegmentHeaderBytes;
  support::fsync_dir(dir_);
}

void WalWriter::rotate_if_needed_locked() {
  if (segment_bytes_ < options_.segment_bytes) return;
  // The finished segment must be fully durable before its successor
  // exists, or recovery could see new-segment records without old ones.
  sync_locked();
  open_segment_locked(segment_index_ + 1);
  rotations_.add();
}

void WalWriter::sync_locked() {
  require_open_locked();
  const std::uint64_t t0 = obs::monotonic_ns();
  obs::Span span;
  if (obs::global_trace_enabled()) {
    span = obs::global_tracer().span("store.fsync");
    span.note("pending", static_cast<double>(unsynced_));
  }
  if (support::io_fflush(file_) != 0 ||
      support::io_fsync(::fileno(file_)) != 0) {
    // fsyncgate: after a failed fsync the kernel may have dropped the
    // dirty pages, so "what is durable" is unknowable.  Fail closed —
    // poison the writer rather than carry on as if durability held.
    std::fclose(file_);
    file_ = nullptr;
    throw StoreError("WAL fsync failed in " + dir_);
  }
  unsynced_ = 0;
  syncs_.add();
  sync_us_.record(us_since(t0));
}

std::uint64_t WalWriter::append(std::uint32_t type,
                                const std::uint8_t* payload,
                                std::size_t size) {
  if (size > kMaxRecordPayload) {
    throw StoreError("WAL record payload exceeds sanity bound");
  }
  const std::uint64_t t0 = obs::monotonic_ns();
  obs::Span span;
  if (obs::global_trace_enabled()) {
    span = obs::global_tracer().span("store.append");
    span.note("bytes", static_cast<double>(size));
  }

  support::ByteWriter frame(kRecordOverheadBytes + size);
  frame.u32(kRecordMagic);
  frame.u32(type);
  frame.u32(static_cast<std::uint32_t>(size));
  frame.raw(payload, size);
  frame.u32(core::crc32(frame.data(), frame.size()));

  std::lock_guard<std::mutex> lock(mutex_);
  require_open_locked();
  rotate_if_needed_locked();
  if (support::io_fwrite(frame.data(), frame.size(), file_) != frame.size()) {
    // The stream now holds a partial frame; appending after it would bury
    // mid-segment garbage that reads back as hard corruption.  Close (the
    // partial frame becomes an ordinary torn tail) and poison the writer.
    std::fclose(file_);
    file_ = nullptr;
    throw StoreError("WAL append failed in " + dir_);
  }
  segment_bytes_ += frame.size();
  bytes_ += frame.size();
  const std::uint64_t ordinal = records_++;
  ++unsynced_;
  if (options_.sync_every > 0 && unsynced_ >= options_.sync_every) {
    sync_locked();
  }
  appends_.add();
  append_bytes_.add(frame.size());
  append_us_.record(us_since(t0));
  return ordinal;
}

void WalWriter::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  sync_locked();
}

void WalWriter::restart_segments() {
  std::lock_guard<std::mutex> lock(mutex_);
  sync_locked();
  std::fclose(file_);
  file_ = nullptr;
  const std::uint64_t next = segment_index_ + 1;
  for (const auto& path : wal_segment_paths(dir_)) {
    support::io_remove(path.c_str());
  }
  open_segment_locked(next);
}

std::uint64_t WalWriter::appended_records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::uint64_t WalWriter::appended_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::uint64_t WalWriter::current_segment_index() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segment_index_;
}

}  // namespace pufatt::store

// Append-only write-ahead log of CRC-framed records with segment rotation.
//
// The durability primitive under the verifier store: every state mutation
// (device enrollment, eviction, CRP consumption) is appended here *before*
// it is applied in memory, so a crash at any instant loses at most the
// records not yet fsynced — never corrupts what was.
//
// On-disk layout (all integers little-endian), one directory per log:
//
//   wal-00000001.log, wal-00000002.log, ...     segment files
//
//   segment   := header record*
//   header    := "PFATWAL1" (8 bytes) | segment index (u64)
//   record    := magic (u32, "PFWR") | type (u32) | payload_len (u32)
//              | payload bytes | crc32 (u32, over magic..payload)
//
// The CRC framing follows the PR-1 wire-format discipline (core/serialize):
// readers must turn any malformed byte stream into a clean error, never
// undefined slicing.  The torn-tail rule makes crash recovery precise:
//
//   * A record that runs past the end of the *final* segment is a torn
//     tail — the prefix before it is the clean shutdown point.  Accepted;
//     the writer truncates it away on reopen.  (Appends write the frame
//     front to back, so a crash mid-append leaves exactly this shape.)
//   * A *complete* record whose CRC does not match, a record with a bad
//     magic while bytes remain, or any short read in a non-final segment
//     is real corruption — a hard StoreError, never silently skipped.
//   * Zero-length payloads are valid records (checkpoint markers).
//   * A segment whose header is garbage is a hard error.
//
// Durability model: append() buffers into the segment's stdio buffer and
// returns; sync() flushes and fsyncs.  With `sync_every = k`, one fsync is
// shared by up to k appends (group commit) — the latency/durability knob
// bench/store_recovery measures.  The writer is thread-safe (one mutex);
// rotation happens transparently when a segment exceeds `segment_bytes`.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pufatt::obs {
class Counter;
class LogHistogram;
}  // namespace pufatt::obs

namespace pufatt::store {

/// Raised on corrupt or inconsistent on-disk state.
class StoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char kSegmentMagic[8] = {'P', 'F', 'A', 'T',
                                          'W', 'A', 'L', '1'};
inline constexpr std::uint32_t kRecordMagic = 0x52574650;  // "PFWR"
inline constexpr std::size_t kSegmentHeaderBytes = 16;
inline constexpr std::size_t kRecordOverheadBytes = 16;  // magic,type,len,crc
inline constexpr std::size_t kMaxRecordPayload = 1u << 28;

struct WalRecord {
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;
  /// Provenance for diagnostics: which segment the record came from and
  /// the byte offset of its frame there, so replay errors can name the
  /// exact on-disk location (see wal_segment_file).
  std::uint64_t origin_segment = 0;
  std::uint64_t origin_offset = 0;
};

struct WalReadResult {
  std::vector<WalRecord> records;
  bool torn_tail = false;       ///< final segment ended mid-record
  std::size_t segments = 0;     ///< segments actually scanned
  std::size_t segments_skipped = 0;  ///< at/below the caller's watermark
  std::uint64_t bytes = 0;      ///< on-disk bytes of the scanned segments
};

/// Segment files under `dir`, sorted by index; validates that filenames
/// parse and indices strictly increase.  Missing directory = empty log.
std::vector<std::string> wal_segment_paths(const std::string& dir);

/// Filename of segment `index` ("wal-00000042.log") — the naming scheme
/// shared by the writer and recovery diagnostics.
std::string wal_segment_file(std::uint64_t index);

/// Reads every record of every segment in order.  Throws StoreError on
/// corruption (see the torn-tail rule above); a torn final record is
/// reported via `torn_tail`, not thrown.  Corruption messages name the
/// segment path and the byte offset of the offending frame.
///
/// Scanned segment indices must be contiguous: a missing *middle* segment
/// (or a gap just above the snapshot watermark) means silently lost
/// records and is a hard StoreError, since rotation, restart_segments,
/// and compaction only ever produce consecutive surviving indices.
///
/// Segments whose index is <= `skip_through_index` are not scanned at all
/// (counted in `segments_skipped`): they are the ones a snapshot's WAL
/// watermark declares folded, and may be stale leftovers of an
/// interrupted compaction — replaying them against a newer snapshot would
/// be wrong, not merely redundant (e.g. a stale consume marker applied to
/// a freshly provisioned CRP database).
WalReadResult read_wal(const std::string& dir,
                       std::uint64_t skip_through_index = 0);

struct WalOptions {
  std::size_t segment_bytes = 4u << 20;  ///< rotate past this size
  /// Appends per automatic group commit; every sync_every-th append also
  /// flushes+fsyncs.  0 = only explicit sync() calls hit the disk.
  std::size_t sync_every = 32;
  /// Compaction watermark floor: segments with a lower index are folded
  /// into a durable snapshot, so the writer deletes them on open and never
  /// numbers a fresh segment below this.  Keeping every live record above
  /// the snapshot's watermark is what makes recovery skip-below-watermark
  /// safe.  1 = no snapshot yet.
  std::uint64_t min_segment_index = 1;
};

class WalWriter {
 public:
  /// Opens (creating the directory if needed) and resumes after the last
  /// valid record: a torn tail from a previous crash is truncated away,
  /// real corruption throws.  Segments below `options.min_segment_index`
  /// (stale leftovers of an interrupted compaction) are deleted first.
  /// New records go to the highest surviving segment, or a fresh one at
  /// `min_segment_index` when none survives.
  explicit WalWriter(std::string dir, const WalOptions& options = {});
  ~WalWriter();  ///< final sync + close (best effort)

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record; returns its ordinal (0-based since open).
  /// Thread-safe.  Durable only after the next sync (explicit or batched).
  /// On any write failure the writer fails *closed*: a failed rotation,
  /// a short frame write, or a failed fsync each close the segment and
  /// permanently poison the writer — every further append/sync throws
  /// StoreError.  (A short write leaves a partial frame at the segment
  /// end; appending after it would bury mid-segment garbage that reads as
  /// hard corruption, whereas the poisoned writer leaves a torn tail the
  /// next open cleanly truncates.  A failed fsync means unknown data
  /// loss — fsyncgate — so pretending the writer is still durable would
  /// be a lie.)
  std::uint64_t append(std::uint32_t type, const std::uint8_t* payload,
                       std::size_t size);
  std::uint64_t append(std::uint32_t type, std::string_view payload) {
    return append(type, reinterpret_cast<const std::uint8_t*>(payload.data()),
                  payload.size());
  }
  std::uint64_t append(std::uint32_t type,
                       const std::vector<std::uint8_t>& payload) {
    return append(type, payload.data(), payload.size());
  }

  /// Group commit: flushes buffered appends and fsyncs the segment.
  /// One call covers every append since the previous sync.
  void sync();

  /// Compaction handshake: deletes every segment (their records are folded
  /// into a snapshot the caller just persisted *with the current segment
  /// index as its watermark*) and starts a fresh one at the next index.
  /// Monotonic numbering is what lets recovery tell folded segments from
  /// live ones: a crash mid-deletion leaves stale segments at or below the
  /// snapshot's watermark, which recovery skips and the next open deletes.
  void restart_segments();

  std::uint64_t appended_records() const;
  std::uint64_t appended_bytes() const;
  std::uint64_t current_segment_index() const;
  const std::string& dir() const { return dir_; }

 private:
  void require_open_locked() const;  ///< throws when the writer has failed
  void open_segment_locked(std::uint64_t index);   ///< caller holds mutex_
  void rotate_if_needed_locked();                  ///< caller holds mutex_
  void sync_locked();                              ///< caller holds mutex_

  const std::string dir_;
  const WalOptions options_;

  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::uint64_t segment_index_ = 0;
  std::uint64_t segment_bytes_ = 0;   ///< bytes in the current segment
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::size_t unsynced_ = 0;          ///< appends since the last fsync

  // obs: resolved once, then relaxed-atomic updates only.
  obs::Counter& appends_;
  obs::Counter& append_bytes_;
  obs::Counter& syncs_;
  obs::Counter& rotations_;
  obs::LogHistogram& append_us_;
  obs::LogHistogram& sync_us_;
};

}  // namespace pufatt::store

// Crash recovery: snapshot + WAL tail → verifier state.
//
// The store's durable state is (snapshot, WAL).  The snapshot records a
// *WAL-segment watermark*: the highest segment index it folded.  Recovery
// loads the snapshot, then replays only segments *above* the watermark —
// segments at or below it are skipped unread.  That is what makes
// compaction crash-safe: the snapshot is written atomically (temp file +
// fsync + rename + directory fsync), and a crash *between* the rename and
// the WAL segment deletion leaves stale folded segments that recovery
// ignores and the next WalWriter open deletes.  Skipping — rather than
// relying on idempotent re-replay of the whole tail — matters because a
// stale tail is not always harmless to re-apply: a leftover consume
// marker could reference a database the snapshot has since replaced, and
// a leftover enroll could resurrect an evicted device.  (Each record type
// still replays idempotently, see store/records.hpp — defense in depth,
// and what keeps replay of the genuinely-live tail order-insensitive to
// how often recovery runs.)
//
// Snapshot layout:  "PFATSNP1" | version (u32) | WAL watermark (u64)
//                   | DeviceRegistry::save bytes | CrpLedger::save bytes
// Both embedded blobs are self-delimiting with their own magic, so the
// snapshot needs no internal length fields; the decoder reads them off
// one cursor (support/bytes), and any malformed byte stream — trailing
// bytes included — surfaces as StoreError.
//
// Recovery order: load snapshot (or start empty), then replay every WAL
// record above the watermark, oldest segment first.  The WAL reader's
// torn-tail rule applies: a truncated final record is the clean shutdown
// point (reported in stats, not fatal); mid-log corruption throws.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/device_registry.hpp"
#include "store/crp_ledger.hpp"
#include "store/wal.hpp"

namespace pufatt::store {

inline constexpr char kSnapshotMagic[8] = {'P', 'F', 'A', 'T',
                                           'S', 'N', 'P', '1'};
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// The snapshot file inside a store directory.
std::string snapshot_path(const std::string& dir);

/// What recovery saw; store-inspect prints exactly this.
struct RecoveryStats {
  bool snapshot_present = false;
  std::uint64_t snapshot_bytes = 0;
  /// Highest WAL segment index the snapshot folded; 0 without a snapshot.
  /// Segments at or below it are skipped, the WalWriter resumes above it.
  std::uint64_t snapshot_watermark = 0;
  std::size_t wal_segments = 0;     ///< segments replayed
  std::size_t wal_segments_skipped = 0;  ///< stale (at/below watermark)
  std::uint64_t wal_bytes = 0;
  bool torn_tail = false;           ///< final record truncated (tolerated)
  std::size_t records_replayed = 0;
  std::map<std::uint32_t, std::size_t> records_by_type;
  std::size_t devices = 0;          ///< registry size after recovery
  std::size_t crp_devices = 0;      ///< devices holding a CRP database
  std::size_t crp_remaining = 0;    ///< unused CRP entries fleet-wide
};

struct RecoveredState {
  service::DeviceRegistry registry;
  /// Rebuilt with a null WAL; the caller attaches the live writer
  /// (CrpLedger::attach_wal) before serving traffic.
  std::unique_ptr<CrpLedger> ledger;
  RecoveryStats stats;
};

/// Rebuilds registry + ledger from `dir` (snapshot, if any, then the WAL
/// tail).  A missing directory or an empty one recovers to empty state.
/// Throws StoreError on corruption, and on a directory holding the
/// `store.shards` manifest of the sharded store this build no longer has
/// (read as a plain store, its shards' devices would silently vanish).
RecoveredState recover(const std::string& dir);

/// The snapshot file's bytes.
std::vector<std::uint8_t> encode_snapshot(
    const service::DeviceRegistry& registry, const CrpLedger& ledger,
    std::uint64_t wal_watermark);

/// Decodes snapshot bytes into `registry` and `ledger`; returns the WAL
/// watermark.  Throws StoreError on malformed input.
std::uint64_t decode_snapshot(const std::vector<std::uint8_t>& bytes,
                              service::DeviceRegistry& registry,
                              CrpLedger& ledger);

/// Atomically persists the snapshot: writes `snapshot.bin.tmp`, fsyncs it,
/// renames over `snapshot.bin`, fsyncs the directory.  A crash at any
/// point leaves either the old complete snapshot or the new one.
/// `wal_watermark` is the highest WAL segment index this state covers
/// (recovery will skip segments at or below it); callers compacting a
/// live store pass the writer's current segment index *after* syncing it.
void write_snapshot(const std::string& dir,
                    const service::DeviceRegistry& registry,
                    const CrpLedger& ledger, std::uint64_t wal_watermark);

}  // namespace pufatt::store

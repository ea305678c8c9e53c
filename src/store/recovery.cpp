#include "store/recovery.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "core/serialize.hpp"
#include "store/records.hpp"
#include "support/faulty_file.hpp"
#include "support/fsyncutil.hpp"

namespace pufatt::store {

namespace {

namespace fs = std::filesystem;

/// Applies one WAL record to warm state.  Each record type is idempotent
/// (enroll overwrites, evict/erase tolerate absence, consume is
/// max-advance).  Throws StoreError on an unknown type or malformed
/// payload, naming the record's origin segment and byte offset.
void replay_wal_record(const WalRecord& record,
                       service::DeviceRegistry& registry, CrpLedger& ledger) {
  try {
    switch (record.type) {
      case kEnroll: {
        auto payload = decode_enroll(record);
        try {
          registry.store(payload.device_id, std::move(payload.record));
        } catch (const std::invalid_argument& e) {
          throw StoreError("enrolled record of '" + payload.device_id +
                           "' refused: " + e.what());
        }
        break;
      }
      case kEvict: {
        const std::string id = decode_evict(record);
        registry.evict(id);
        ledger.replay_erase(id);
        break;
      }
      case kCrpEnroll: {
        auto payload = decode_crp_enroll(record);
        ledger.replay_enroll(payload.device_id, std::move(payload.db));
        break;
      }
      case kCrpConsume: {
        const auto payload = decode_crp_consume(record);
        ledger.replay_consume(payload.device_id, payload.entry_index);
        break;
      }
      case kCheckpoint:
        break;
      default:
        throw StoreError("unknown WAL record type " +
                         std::to_string(record.type));
    }
  } catch (const StoreError& e) {
    // The CRC was fine, so the frame arrived intact but its *payload* is
    // nonsense — name the exact on-disk frame for the postmortem.
    throw StoreError(std::string(e.what()) + " (record from " +
                     wal_segment_file(record.origin_segment) + " at byte " +
                     std::to_string(record.origin_offset) + ")");
  }
}

}  // namespace

std::string snapshot_path(const std::string& dir) {
  return dir + "/snapshot.bin";
}

std::vector<std::uint8_t> encode_snapshot(
    const service::DeviceRegistry& registry, const CrpLedger& ledger,
    std::uint64_t wal_watermark) {
  support::ByteWriter out;
  out.raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  out.u32(kSnapshotVersion);
  out.u64(wal_watermark);
  registry.save(out);
  ledger.save(out);
  return out.take();
}

std::uint64_t decode_snapshot(const std::vector<std::uint8_t>& bytes,
                              service::DeviceRegistry& registry,
                              CrpLedger& ledger) {
  support::ByteReader<StoreError> in(bytes, "truncated snapshot");
  if (std::memcmp(in.take(8), kSnapshotMagic, 8) != 0) {
    throw StoreError("bad snapshot magic");
  }
  if (in.u32() != kSnapshotVersion) {
    throw StoreError("unsupported snapshot version");
  }
  const std::uint64_t watermark = in.u64();
  try {
    support::ByteReader<core::SerializationError> blob(
        in, "DeviceRegistry: truncated");
    registry = service::DeviceRegistry::load_registry(blob);
  } catch (const core::SerializationError& e) {
    throw StoreError(std::string("bad registry in snapshot: ") + e.what());
  }
  CrpLedger::load_into(in, ledger);
  in.expect_end("trailing bytes in snapshot");
  return watermark;
}

RecoveredState recover(const std::string& dir,
                       CrpLedger::Options ledger_options) {
  RecoveredState state;
  state.ledger =
      std::make_unique<CrpLedger>(nullptr, std::move(ledger_options));

  std::error_code ec;
  if (fs::exists(dir + "/store.shards", ec)) {
    throw StoreError(dir + "/store.shards: a sharded-store manifest; this "
                     "build reads only a single store");
  }
  const std::string snap = snapshot_path(dir);
  if (fs::exists(snap, ec)) {
    std::vector<std::uint8_t> bytes;
    if (!support::read_file(snap, bytes)) {
      throw StoreError("cannot open snapshot " + snap);
    }
    state.stats.snapshot_present = true;
    state.stats.snapshot_bytes = bytes.size();
    state.stats.snapshot_watermark =
        decode_snapshot(bytes, state.registry, *state.ledger);
  }

  // The WAL tail: only segments above the snapshot's watermark.  Segments
  // at or below it were folded — if they still exist, a crash interrupted
  // compaction between the rename and the segment deletion, and replaying
  // them against this (newer) snapshot would be wrong, not just redundant.
  WalReadResult wal;
  if (fs::exists(dir, ec)) {
    wal = read_wal(dir, state.stats.snapshot_watermark);
  }
  state.stats.wal_segments = wal.segments;
  state.stats.wal_segments_skipped = wal.segments_skipped;
  state.stats.wal_bytes = wal.bytes;
  state.stats.torn_tail = wal.torn_tail;
  for (const auto& record : wal.records) {
    replay_wal_record(record, state.registry, *state.ledger);
    ++state.stats.records_replayed;
    ++state.stats.records_by_type[record.type];
  }

  state.stats.devices = state.registry.size();
  state.stats.crp_devices = state.ledger->device_count();
  state.stats.crp_remaining = state.ledger->total_remaining();
  return state;
}

void write_snapshot(const std::string& dir,
                    const service::DeviceRegistry& registry,
                    const CrpLedger& ledger, std::uint64_t wal_watermark) {
  fs::create_directories(dir);
  const std::string path = snapshot_path(dir);
  const std::string tmp = path + ".tmp";

  // Serialize into memory first, then push the bytes through the
  // fault-injectable io_* ops: one buffer, one write, every failure mode
  // (short write, fsync EIO, torn rename) observable and tested.
  const auto bytes = encode_snapshot(registry, ledger, wal_watermark);

  std::FILE* out = support::io_fopen(tmp.c_str(), "wb");
  if (out == nullptr) throw StoreError("cannot open " + tmp);
  const bool wrote =
      support::io_fwrite(bytes.data(), bytes.size(), out) == bytes.size();
  const bool flushed = support::io_fflush(out) == 0;
  // The temp file's bytes must be durable before the rename makes them
  // the snapshot — otherwise a crash could expose a named-but-torn file.
  // This fsync is *checked*: ignoring its failure would publish a
  // snapshot whose durability is unknown, then delete the WAL segments
  // that could have rebuilt it.
  const bool synced = support::io_fsync(::fileno(out)) == 0;
  std::fclose(out);
  if (!wrote || !flushed || !synced) {
    support::io_remove(tmp.c_str());
    throw StoreError("snapshot write failed: " + tmp);
  }
  if (support::io_rename(tmp.c_str(), path.c_str()) != 0) {
    support::io_remove(tmp.c_str());
    throw StoreError("cannot rename " + tmp + " -> " + path);
  }
  support::fsync_dir(dir);
}

}  // namespace pufatt::store

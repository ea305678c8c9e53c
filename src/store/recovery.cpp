#include "store/recovery.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/serialize.hpp"
#include "store/records.hpp"
#include "support/faulty_file.hpp"
#include "support/fsyncutil.hpp"

namespace pufatt::store {

namespace {

namespace fs = std::filesystem;

void write_u32(std::ostream& out, std::uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(bytes, 4);
}

void write_u64(std::ostream& out, std::uint64_t v) {
  write_u32(out, static_cast<std::uint32_t>(v));
  write_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t read_u32(std::istream& in) {
  char bytes[4];
  in.read(bytes, 4);
  if (!in) throw StoreError("truncated snapshot");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t read_u64(std::istream& in) {
  const std::uint64_t lo = read_u32(in);
  return lo | (static_cast<std::uint64_t>(read_u32(in)) << 32);
}

void load_snapshot(const std::string& path, RecoveredState& state) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw StoreError("cannot open snapshot " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    throw StoreError("bad snapshot magic: " + path);
  }
  if (read_u32(in) != kSnapshotVersion) {
    throw StoreError("unsupported snapshot version: " + path);
  }
  state.stats.snapshot_watermark = read_u64(in);
  try {
    state.registry = service::DeviceRegistry::load_registry(in);
  } catch (const core::SerializationError& e) {
    throw StoreError(std::string("bad registry in snapshot: ") + e.what());
  }
  CrpLedger::load_into(in, *state.ledger);
}

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

RecoveredState recover(const std::string& dir,
                       CrpLedger::Options ledger_options) {
  RecoveredState state;
  state.ledger =
      std::make_unique<CrpLedger>(nullptr, std::move(ledger_options));

  const std::string snap = snapshot_path(dir);
  std::error_code ec;
  if (fs::exists(snap, ec)) {
    state.stats.snapshot_present = true;
    state.stats.snapshot_bytes = fs::file_size(snap);
    load_snapshot(snap, state);
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
  std::ostringstream buffer(std::ios::binary);
  buffer.write(kSnapshotMagic, sizeof(kSnapshotMagic));
  write_u32(buffer, kSnapshotVersion);
  write_u64(buffer, wal_watermark);
  registry.save(buffer);
  ledger.save(buffer);
  const std::string bytes = buffer.str();

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

// Typed WAL record payloads for the verifier store.
//
// The WAL layer (store/wal) moves opaque CRC-framed byte strings; this
// layer gives them meaning.  Five record types cover every durable state
// mutation a verifier makes:
//
//   kEnroll      device enrolled/re-enrolled: id + full EnrollmentRecord
//   kEvict       device de-registered: id only
//   kCrpEnroll   a CRP database provisioned for a device: id + full DB
//   kCrpConsume  one CRP entry spent: id + *absolute* entry index
//   kCheckpoint  zero-payload marker (store-inspect bookkeeping)
//
// Replay of each type is idempotent: enroll is last-wins insert, evict of
// an absent id is a no-op, and a consume marker carries the absolute
// index so it is applied as "advance cursor to at least index+1"
// (CrpDatabase::mark_consumed_through) rather than "consume one more" —
// replaying it twice moves nothing.  Note this is defense in depth, not
// the compaction-safety mechanism: recovery never replays segments a
// snapshot has folded (it skips everything at or below the snapshot's
// WAL watermark, see store/recovery.hpp), because a stale folded record
// can be *wrong* to re-apply against newer state, not merely redundant.
//
// Payload framing: [u32 id_len][id bytes][type-specific body] through
// support/bytes, ids bounded by support::kMaxDeviceIdBytes; decoders throw
// StoreError on any malformed payload, trailing bytes included.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/crp_database.hpp"
#include "core/enrollment.hpp"
#include "store/wal.hpp"

namespace pufatt::store {

enum RecordType : std::uint32_t {
  kEnroll = 1,
  kEvict = 2,
  kCrpEnroll = 3,
  kCrpConsume = 4,
  kCheckpoint = 5,
};

/// Human-readable name for store-inspect ("enroll", "evict", ...);
/// "unknown" for types this build does not know.
const char* record_type_name(std::uint32_t type);

std::vector<std::uint8_t> encode_enroll(const std::string& device_id,
                                        const core::EnrollmentRecord& record);
std::vector<std::uint8_t> encode_evict(const std::string& device_id);
std::vector<std::uint8_t> encode_crp_enroll(const std::string& device_id,
                                            const core::CrpDatabase& db);
std::vector<std::uint8_t> encode_crp_consume(const std::string& device_id,
                                             std::uint64_t entry_index);

struct EnrollPayload {
  std::string device_id;
  core::EnrollmentRecord record;
};

struct CrpEnrollPayload {
  std::string device_id;
  core::CrpDatabase db;
};

struct CrpConsumePayload {
  std::string device_id;
  std::uint64_t entry_index = 0;
};

/// Decoders for the corresponding encode_* payloads.  Throw StoreError on
/// any malformed body (bad length, trailing bytes, nested
/// SerializationError from the embedded record/database).
EnrollPayload decode_enroll(const WalRecord& record);
std::string decode_evict(const WalRecord& record);
CrpEnrollPayload decode_crp_enroll(const WalRecord& record);
CrpConsumePayload decode_crp_consume(const WalRecord& record);

}  // namespace pufatt::store

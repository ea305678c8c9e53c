#include "store/records.hpp"

#include "core/serialize.hpp"

namespace pufatt::store {

namespace {

using Reader = support::ByteReader<StoreError>;

constexpr const char* kTruncated = "truncated WAL record payload";
constexpr const char* kTrailing = "trailing bytes in WAL record payload";

std::string read_id(Reader& in) {
  return in.str(support::kMaxDeviceIdBytes,
                "device id in WAL record exceeds sanity bound");
}

support::ByteWriter id_prefix(const std::string& device_id) {
  support::ByteWriter out;
  out.str(device_id);
  return out;
}

void expect_type(const WalRecord& record, std::uint32_t type) {
  if (record.type != type) {
    throw StoreError(std::string("WAL record is not a ") +
                     record_type_name(type) + " record");
  }
}

}  // namespace

const char* record_type_name(std::uint32_t type) {
  switch (type) {
    case kEnroll: return "enroll";
    case kEvict: return "evict";
    case kCrpEnroll: return "crp_enroll";
    case kCrpConsume: return "crp_consume";
    case kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_enroll(const std::string& device_id,
                                        const core::EnrollmentRecord& record) {
  auto out = id_prefix(device_id);
  core::save_record(out, record);
  return out.take();
}

std::vector<std::uint8_t> encode_evict(const std::string& device_id) {
  return id_prefix(device_id).take();
}

std::vector<std::uint8_t> encode_crp_enroll(const std::string& device_id,
                                            const core::CrpDatabase& db) {
  auto out = id_prefix(device_id);
  db.save(out);
  return out.take();
}

std::vector<std::uint8_t> encode_crp_consume(const std::string& device_id,
                                             std::uint64_t entry_index) {
  auto out = id_prefix(device_id);
  out.u64(entry_index);
  return out.take();
}

EnrollPayload decode_enroll(const WalRecord& record) {
  expect_type(record, kEnroll);
  Reader in(record.payload, kTruncated);
  EnrollPayload payload;
  payload.device_id = read_id(in);
  try {
    support::ByteReader<core::SerializationError> blob(
        in, "unexpected end of input");
    payload.record = core::load_record(blob);
  } catch (const core::SerializationError& e) {
    throw StoreError(std::string("bad enrollment record in WAL: ") + e.what());
  }
  in.expect_end(kTrailing);
  return payload;
}

std::string decode_evict(const WalRecord& record) {
  expect_type(record, kEvict);
  Reader in(record.payload, kTruncated);
  std::string device_id = read_id(in);
  in.expect_end(kTrailing);
  return device_id;
}

CrpEnrollPayload decode_crp_enroll(const WalRecord& record) {
  expect_type(record, kCrpEnroll);
  Reader in(record.payload, kTruncated);
  CrpEnrollPayload payload;
  payload.device_id = read_id(in);
  try {
    support::ByteReader<core::SerializationError> blob(
        in, "CrpDatabase: unexpected end of input");
    payload.db = core::CrpDatabase::load(blob);
  } catch (const core::SerializationError& e) {
    throw StoreError(std::string("bad CRP database in WAL: ") + e.what());
  }
  in.expect_end(kTrailing);
  return payload;
}

CrpConsumePayload decode_crp_consume(const WalRecord& record) {
  expect_type(record, kCrpConsume);
  Reader in(record.payload, kTruncated);
  CrpConsumePayload payload;
  payload.device_id = read_id(in);
  payload.entry_index = in.u64();
  in.expect_end(kTrailing);
  return payload;
}

}  // namespace pufatt::store

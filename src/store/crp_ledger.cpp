#include "store/crp_ledger.hpp"

#include <utility>

#include "core/serialize.hpp"
#include "store/records.hpp"
#include "store/wal.hpp"

namespace pufatt::store {

namespace {

constexpr std::uint32_t kLedgerMagic = 0x47444C50;  // "PLDG"
constexpr std::uint32_t kLedgerVersion = 1;
constexpr std::uint32_t kMaxLedgerDevices = 1u << 20;

}  // namespace

void CrpLedger::enroll(const std::string& device_id, core::CrpDatabase db) {
  support::check_device_id(device_id, "CrpLedger::enroll");
  // Log-before-apply: the enrollment is in the WAL buffer before the
  // in-memory map ever serves it.
  if (wal_ != nullptr) {
    wal_->append(kCrpEnroll, encode_crp_enroll(device_id, db));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  dbs_.insert_or_assign(device_id, std::move(db));
}

bool CrpLedger::erase(const std::string& device_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  return dbs_.erase(device_id) > 0;
}

std::optional<core::CrpDatabase::AuthResult> CrpLedger::authenticate(
    const std::string& device_id, const alupuf::AluPuf& device,
    support::Xoshiro256pp& rng, double threshold_fraction,
    const variation::Environment& env) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = dbs_.find(device_id);
  if (it == dbs_.end()) return std::nullopt;
  // The entry authenticate() will spend is the one at the cursor; record
  // its index before the call so the marker names exactly that entry.
  const std::size_t spent_index = it->second.consumed();
  auto result = it->second.authenticate(device, rng, threshold_fraction, env);
  if (result.conclusive() && wal_ != nullptr) {
    // Marker before the result escapes this function: an accepted
    // verdict is never observable without its consumption logged.
    wal_->append(kCrpConsume, encode_crp_consume(device_id, spent_index));
  }
  return result;
}

std::optional<std::size_t> CrpLedger::remaining(
    const std::string& device_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = dbs_.find(device_id);
  if (it == dbs_.end()) return std::nullopt;
  return it->second.remaining();
}

bool CrpLedger::contains(const std::string& device_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dbs_.count(device_id) > 0;
}

std::size_t CrpLedger::device_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dbs_.size();
}

std::size_t CrpLedger::total_remaining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [id, db] : dbs_) total += db.remaining();
  return total;
}

std::vector<std::string> CrpLedger::device_ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(dbs_.size());
  for (const auto& [id, db] : dbs_) ids.push_back(id);
  return ids;  // std::map iteration order: already sorted
}

void CrpLedger::replay_enroll(const std::string& device_id,
                              core::CrpDatabase db) {
  std::lock_guard<std::mutex> lock(mutex_);
  dbs_.insert_or_assign(device_id, std::move(db));
}

void CrpLedger::replay_erase(const std::string& device_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  dbs_.erase(device_id);
}

void CrpLedger::replay_consume(const std::string& device_id,
                               std::uint64_t entry_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = dbs_.find(device_id);
  if (it == dbs_.end()) {
    throw StoreError("WAL consume marker for a device with no CRP database: " +
                     device_id);
  }
  try {
    it->second.mark_consumed_through(static_cast<std::size_t>(entry_index));
  } catch (const std::out_of_range&) {
    throw StoreError("WAL consume marker past the database for " + device_id);
  }
}

void CrpLedger::save(support::ByteWriter& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out.u32(kLedgerMagic);
  out.u32(kLedgerVersion);
  out.u32(static_cast<std::uint32_t>(dbs_.size()));
  for (const auto& [id, db] : dbs_) {  // sorted: byte-stable
    out.str(id);
    db.save(out);
  }
}

void CrpLedger::load_into(support::ByteReader<StoreError>& outer,
                          CrpLedger& ledger) {
  support::ByteReader<StoreError> in(outer, "truncated CRP ledger");
  if (in.u32() != kLedgerMagic) throw StoreError("bad CRP ledger magic");
  if (in.u32() != kLedgerVersion) {
    throw StoreError("unsupported CRP ledger version");
  }
  const std::uint32_t count = in.u32();
  if (count > kMaxLedgerDevices) {
    throw StoreError("CRP ledger device count exceeds sanity bound");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string id = in.str(support::kMaxDeviceIdBytes,
                            "CRP ledger device id exceeds sanity bound");
    core::CrpDatabase db;
    try {
      support::ByteReader<core::SerializationError> blob(
          in, "CrpDatabase: unexpected end of input");
      db = core::CrpDatabase::load(blob);
    } catch (const core::SerializationError& e) {
      throw StoreError(std::string("bad CRP database in ledger: ") + e.what());
    }
    ledger.replay_enroll(id, std::move(db));
  }
}

}  // namespace pufatt::store

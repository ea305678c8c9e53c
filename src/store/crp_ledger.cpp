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

CrpLedger::CrpLedger(WalWriter* wal, Options options)
    : wal_(wal), options_(std::move(options)) {}

void CrpLedger::enroll(const std::string& device_id, core::CrpDatabase db) {
  support::check_device_id(device_id, "CrpLedger::enroll");
  // Log-before-apply: the enrollment is in the WAL buffer before the
  // in-memory map ever serves it.
  if (wal_ != nullptr) {
    wal_->append(kCrpEnroll, encode_crp_enroll(device_id, db));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Slot slot;
  slot.db = std::move(db);
  slot.low_notified = slot.db.remaining() <= options_.low_watermark;
  slots_.insert_or_assign(device_id, std::move(slot));
}

bool CrpLedger::erase(const std::string& device_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.erase(device_id) > 0;
}

std::optional<CrpLedger::LowWatermark> CrpLedger::check_watermark_locked(
    const std::string& device_id) {
  auto it = slots_.find(device_id);
  if (it == slots_.end()) return std::nullopt;
  const std::size_t remaining = it->second.db.remaining();
  if (remaining > options_.low_watermark) {
    it->second.low_notified = false;  // replenished: re-arm
    return std::nullopt;
  }
  if (it->second.low_notified || !options_.on_low) return std::nullopt;
  it->second.low_notified = true;
  return LowWatermark{device_id, remaining};
}

std::optional<core::CrpDatabase::AuthResult> CrpLedger::authenticate(
    const std::string& device_id, const alupuf::AluPuf& device,
    support::Xoshiro256pp& rng, double threshold_fraction,
    const variation::Environment& env,
    std::optional<LowWatermark>* low_out) {
  std::optional<core::CrpDatabase::AuthResult> result;
  std::optional<LowWatermark> low;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(device_id);
    if (it == slots_.end()) return std::nullopt;
    // The entry authenticate() will spend is the one at the cursor; record
    // its index before the call so the marker names exactly that entry.
    const std::size_t spent_index = it->second.db.consumed();
    result = it->second.db.authenticate(device, rng, threshold_fraction, env);
    if (result->conclusive() && wal_ != nullptr) {
      // Marker before the result escapes this function: an accepted
      // verdict is never observable without its consumption logged.
      wal_->append(kCrpConsume, encode_crp_consume(device_id, spent_index));
    }
    if (result->conclusive()) low = check_watermark_locked(device_id);
  }
  if (low_out != nullptr) {
    // The caller holds an outer lock of its own (the VerifierStore
    // facade): hand the notification over so it fires only after that
    // lock is released — never inline, where a replenishing hook would
    // re-enter the facade and self-deadlock.
    *low_out = std::move(low);
  } else if (low) {
    // Outside the ledger lock: the hook may re-enter enroll() directly.
    options_.on_low(low->device_id, low->remaining);
  }
  return result;
}

std::optional<std::size_t> CrpLedger::remaining(
    const std::string& device_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(device_id);
  if (it == slots_.end()) return std::nullopt;
  return it->second.db.remaining();
}

bool CrpLedger::contains(const std::string& device_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.count(device_id) > 0;
}

std::size_t CrpLedger::device_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

std::size_t CrpLedger::total_remaining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [id, slot] : slots_) total += slot.db.remaining();
  return total;
}

std::vector<std::string> CrpLedger::device_ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(slots_.size());
  for (const auto& [id, slot] : slots_) ids.push_back(id);
  return ids;  // std::map iteration order: already sorted
}

void CrpLedger::replay_enroll(const std::string& device_id,
                              core::CrpDatabase db) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot slot;
  slot.db = std::move(db);
  slot.low_notified = slot.db.remaining() <= options_.low_watermark;
  slots_.insert_or_assign(device_id, std::move(slot));
}

void CrpLedger::replay_erase(const std::string& device_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_.erase(device_id);
}

void CrpLedger::replay_consume(const std::string& device_id,
                               std::uint64_t entry_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(device_id);
  if (it == slots_.end()) {
    throw StoreError("WAL consume marker for a device with no CRP database: " +
                     device_id);
  }
  try {
    it->second.db.mark_consumed_through(static_cast<std::size_t>(entry_index));
  } catch (const std::out_of_range&) {
    throw StoreError("WAL consume marker past the database for " + device_id);
  }
  it->second.low_notified =
      it->second.db.remaining() <= options_.low_watermark;
}

void CrpLedger::save(support::ByteWriter& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out.u32(kLedgerMagic);
  out.u32(kLedgerVersion);
  out.u32(static_cast<std::uint32_t>(slots_.size()));
  for (const auto& [id, slot] : slots_) {  // sorted: byte-stable
    out.str(id);
    slot.db.save(out);
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

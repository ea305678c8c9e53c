// Durable per-device CRP consumption accounting.
//
// A single-use CRP database (core/crp_database, the paper's verification
// option 1) is only replay-proof if *consumption survives restart*: a
// verifier that forgets which entries it spent will happily accept a
// recorded response the second time.  The ledger closes that hole by
// writing a kCrpConsume marker to the WAL for every entry an
// authentication spends, before the result is returned to the caller —
// after recovery, remaining() picks up exactly where the crashed process
// left off and spent entries stay spent.
//
// Markers carry the *absolute* entry index, so replay is idempotent
// (mark_consumed_through is a max-advance): recovering from a snapshot
// that already folded some markers, then replaying the full WAL tail,
// lands on the same cursor.
//
// Thread-safe: every operation but attach_wal takes the ledger's own lock.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/crp_database.hpp"
#include "support/bytes.hpp"

namespace pufatt::store {

class StoreError;
class WalWriter;

class CrpLedger {
 public:
  /// `wal` may be null (inspection / offline replay: nothing is logged);
  /// when set it must outlive the ledger.
  explicit CrpLedger(WalWriter* wal) : wal_(wal) {}

  /// Recovery wire-up: a ledger is rebuilt with no WAL (replay must not
  /// re-log what it replays), then attached to the live writer before any
  /// concurrent use.  Not thread-safe against in-flight operations.
  void attach_wal(WalWriter* wal) { wal_ = wal; }

  CrpLedger(const CrpLedger&) = delete;
  CrpLedger& operator=(const CrpLedger&) = delete;

  /// Provisions (or replaces) a device's database; logs a kCrpEnroll
  /// record carrying the full database.  An id longer than
  /// support::kMaxDeviceIdBytes throws std::invalid_argument, and nothing
  /// is logged or stored.
  void enroll(const std::string& device_id, core::CrpDatabase db);

  /// Drops a device's database (paired with registry eviction); the evict
  /// WAL record is the registry's, so this logs nothing.  No-op when absent.
  bool erase(const std::string& device_id);

  /// Authenticates against the device's database, logging the consume
  /// marker before returning, so an accepted result is never observable
  /// without its consumption being (at least) in the WAL buffer.
  /// nullopt when the device has no database.
  std::optional<core::CrpDatabase::AuthResult> authenticate(
      const std::string& device_id, const alupuf::AluPuf& device,
      support::Xoshiro256pp& rng, double threshold_fraction = 0.22,
      const variation::Environment& env = variation::Environment::nominal());

  /// nullopt when the device has no database.
  std::optional<std::size_t> remaining(const std::string& device_id) const;
  bool contains(const std::string& device_id) const;
  std::size_t device_count() const;
  /// Sum of remaining() over every device (store-inspect summary).
  std::size_t total_remaining() const;
  std::vector<std::string> device_ids() const;  ///< sorted

  // --- replay (recovery path: mutate state without logging) -----------------

  void replay_enroll(const std::string& device_id, core::CrpDatabase db);
  void replay_erase(const std::string& device_id);
  /// Applies a consume marker; unknown device or out-of-range index is
  /// corruption (the WAL recorded a consume the state cannot explain).
  void replay_consume(const std::string& device_id, std::uint64_t entry_index);

  // --- persistence (snapshot embedding) -------------------------------------

  /// Byte-stable: devices sorted by id, each database via CrpDatabase::save
  /// (cursor included).
  void save(support::ByteWriter& out) const;
  /// Reads a ledger written by save() at the cursor; throws StoreError on
  /// malformed input.
  static void load_into(support::ByteReader<StoreError>& in, CrpLedger& ledger);

 private:
  WalWriter* wal_;
  mutable std::mutex mutex_;
  /// Ordered: save() iterates sorted.
  std::map<std::string, core::CrpDatabase> dbs_;
};

}  // namespace pufatt::store

// The durable verifier store: one directory holding everything a verifier
// must not forget across a crash.
//
//   <dir>/wal-NNNNNNNN.log   append-only mutation log (store/wal)
//   <dir>/snapshot.bin       periodic compaction of the log (store/recovery)
//
// Every mutation — device enrollment, eviction, CRP provisioning, CRP
// consumption — is appended to the WAL before (or atomically with) its
// in-memory application, so the live DeviceRegistry and CrpLedger are
// always reconstructible as snapshot + WAL replay.  open() performs that
// reconstruction; compact() folds the WAL into a fresh snapshot and
// restarts the log.
//
// Durability is batched: appends become durable at the next sync(),
// explicit or every `WalOptions::sync_every` appends.
//
// Concurrency: CRP authentication (the hot path) runs under the ledger's
// own lock and takes only a shared state lock here; enrollment, eviction
// and compaction are exclusive — which both keeps WAL order identical to
// apply order for registry mutations and guarantees compact() snapshots a
// state at least as new as every record it deletes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>

#include "core/crp_database.hpp"
#include "core/enrollment.hpp"
#include "service/device_registry.hpp"
#include "store/crp_ledger.hpp"
#include "store/recovery.hpp"
#include "store/wal.hpp"

namespace pufatt::obs {
class Counter;
class LogHistogram;
}  // namespace pufatt::obs

namespace pufatt::store {

class VerifierStore {
 public:
  /// Opens (creating if empty) the store at `dir`: recovers registry and
  /// ledger from snapshot + WAL, truncates any torn tail, and resumes
  /// logging.  Throws StoreError on corruption.
  static std::unique_ptr<VerifierStore> open(std::string dir,
                                             WalOptions options = {});

  VerifierStore(const VerifierStore&) = delete;
  VerifierStore& operator=(const VerifierStore&) = delete;

  // --- logged mutations -----------------------------------------------------

  /// Enrolls (or re-enrolls) a device.  Returns false when the id was
  /// already present (the record is replaced either way).  An id longer
  /// than support::kMaxDeviceIdBytes, or a record core::DeviceSnapshot
  /// refuses, throws std::invalid_argument and is not logged.
  bool enroll(const std::string& device_id, core::EnrollmentRecord record);

  /// De-registers a device and drops its CRP database (one kEvict record
  /// covers both).  Returns false when the id was unknown everywhere.
  bool evict(const std::string& device_id);

  /// Provisions (or replaces) a device's single-use CRP database.  An id
  /// longer than support::kMaxDeviceIdBytes throws std::invalid_argument
  /// and is not logged.
  void enroll_crps(const std::string& device_id, core::CrpDatabase db);

  /// CRP authentication with durable consumption (see CrpLedger).
  /// nullopt when the device has no database.
  std::optional<core::CrpDatabase::AuthResult> authenticate_crp(
      const std::string& device_id, const alupuf::AluPuf& device,
      support::Xoshiro256pp& rng, double threshold_fraction = 0.22,
      const variation::Environment& env = variation::Environment::nominal());

  // --- durability -----------------------------------------------------------

  /// Group commit: everything appended so far is on disk when this
  /// returns.
  void sync();

  /// Folds the whole WAL into a fresh snapshot (atomic temp+rename) and
  /// restarts the log.  Exclusive with every mutation; crash-safe at any
  /// instant (see store/recovery.hpp).
  void compact();

  // --- views ----------------------------------------------------------------

  std::optional<std::size_t> crp_remaining(const std::string& device_id) const;

  /// The live registry (wire an EmulatorCache to it).  Mutate only through
  /// the store, or the WAL will not know.
  const service::DeviceRegistry& registry() const { return registry_; }
  const CrpLedger& crp_ledger() const { return *ledger_; }
  const WalWriter& wal() const { return wal_; }
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }
  const std::string& dir() const { return dir_; }

 private:
  VerifierStore(std::string dir, const WalOptions& options,
                RecoveredState state);

  const std::string dir_;

  /// Shared: CRP authentication.  Exclusive: enroll/evict/enroll_crps
  /// (keeps WAL order == apply order) and compact (quiesces everything).
  mutable std::shared_mutex state_mutex_;
  WalWriter wal_;
  service::DeviceRegistry registry_;
  std::unique_ptr<CrpLedger> ledger_;
  RecoveryStats recovery_stats_;

  obs::Counter& enrolls_;
  obs::Counter& evictions_;
  obs::Counter& crp_auths_;
  obs::Counter& compactions_;
  obs::LogHistogram& compact_us_;
};

}  // namespace pufatt::store

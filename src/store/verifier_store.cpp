#include "store/verifier_store.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/records.hpp"

namespace pufatt::store {

namespace {

/// Same geometry as the store.wal.* histograms (the registry binds a name
/// to one scale; all store.* latencies share this one).
const support::LogScale& store_scale() {
  static const support::LogScale scale{1.0, 4.0, 10};
  return scale;
}

}  // namespace

std::unique_ptr<VerifierStore> VerifierStore::open(std::string dir,
                                                   WalOptions options) {
  obs::Span span;
  if (obs::global_trace_enabled()) {
    span = obs::global_tracer().span("store.recover");
  }
  // Recovery reads the files before WalWriter (constructed inside the
  // VerifierStore) truncates the torn tail; both apply the same clean-
  // prefix rule, so they agree on where the log ends.
  RecoveredState state = recover(dir);
  // The writer must never number a fresh segment at or below the
  // snapshot's watermark (recovery would skip its records) and deletes
  // any stale folded segments an interrupted compaction left behind.
  options.min_segment_index =
      std::max<std::uint64_t>(options.min_segment_index,
                              state.stats.snapshot_watermark + 1);
  if (span.active()) {
    span.note("records", static_cast<double>(state.stats.records_replayed));
    span.note("devices", static_cast<double>(state.stats.devices));
  }
  return std::unique_ptr<VerifierStore>(
      new VerifierStore(std::move(dir), options, std::move(state)));
}

VerifierStore::VerifierStore(std::string dir, const WalOptions& options,
                             RecoveredState state)
    : dir_(std::move(dir)),
      wal_(dir_, options),
      registry_(std::move(state.registry)),
      ledger_(std::move(state.ledger)),
      recovery_stats_(std::move(state.stats)),
      enrolls_(obs::global_registry().counter("store.enrolls")),
      evictions_(obs::global_registry().counter("store.evictions")),
      crp_auths_(obs::global_registry().counter("store.crp_auths")),
      compactions_(obs::global_registry().counter("store.compactions")),
      compact_us_(obs::global_registry().histogram("store.compact_us",
                                                   store_scale())) {
  ledger_->attach_wal(&wal_);
}

bool VerifierStore::enroll(const std::string& device_id,
                           core::EnrollmentRecord record) {
  // Checked and built before anything is logged, and outside the lock: an
  // id or a record recovery would refuse throws here and never reaches the
  // WAL, where it would fail every later recovery.
  support::check_device_id(device_id, "VerifierStore::enroll");
  auto snapshot =
      std::make_shared<const core::DeviceSnapshot>(std::move(record));
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  wal_.append(kEnroll, encode_enroll(device_id, *snapshot));
  enrolls_.add();
  return registry_.store(device_id, std::move(snapshot));
}

bool VerifierStore::evict(const std::string& device_id) {
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  if (!registry_.contains(device_id) && !ledger_->contains(device_id)) {
    return false;  // nothing to forget; keep the WAL free of noise
  }
  wal_.append(kEvict, encode_evict(device_id));
  evictions_.add();
  registry_.evict(device_id);
  ledger_->erase(device_id);
  return true;
}

void VerifierStore::enroll_crps(const std::string& device_id,
                                core::CrpDatabase db) {
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  // CrpLedger::enroll logs the kCrpEnroll record itself (log-before-apply).
  ledger_->enroll(device_id, std::move(db));
}

std::optional<core::CrpDatabase::AuthResult> VerifierStore::authenticate_crp(
    const std::string& device_id, const alupuf::AluPuf& device,
    support::Xoshiro256pp& rng, double threshold_fraction,
    const variation::Environment& env) {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  crp_auths_.add();
  return ledger_->authenticate(device_id, device, rng, threshold_fraction,
                               env);
}

void VerifierStore::sync() { wal_.sync(); }

void VerifierStore::compact() {
  const std::uint64_t t0 = obs::monotonic_ns();
  obs::Span span;
  if (obs::global_trace_enabled()) {
    span = obs::global_tracer().span("store.compaction");
  }
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  // Under the exclusive lock the in-memory state covers every WAL record,
  // so the order below is crash-safe at each step: before the rename the
  // old snapshot + the segments above *its* watermark still recover; after
  // it the new snapshot's watermark (the just-synced current segment)
  // makes recovery skip every folded segment, deleted or not — stale
  // leftovers of an interrupted deletion are never replayed.
  wal_.sync();
  write_snapshot(dir_, registry_, *ledger_, wal_.current_segment_index());
  wal_.restart_segments();
  compactions_.add();
  const double us =
      static_cast<double>(obs::monotonic_ns() - t0) / 1000.0;
  compact_us_.record(us);
  if (span.active()) {
    span.note("devices", static_cast<double>(registry_.size()));
  }
}

std::optional<std::size_t> VerifierStore::crp_remaining(
    const std::string& device_id) const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return ledger_->remaining(device_id);
}

}  // namespace pufatt::store

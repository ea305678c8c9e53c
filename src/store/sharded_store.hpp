// N-way partitioned verifier store: the fleet-scale front of src/store.
//
// One VerifierStore serializes every mutation through a single WAL; at
// fleet scale that log is both the write bottleneck and a single blast
// radius.  The sharded store splits the fleet across N fully independent
// VerifierStores — per-shard WAL, snapshot, compaction, and locks — and
// routes each device to its shard with the same platform-stable hash the
// registry already stripes its locks by (service::stable_device_hash).
// Two devices in different shards share *nothing*: no lock, no WAL fsync
// queue, no compaction pause, no corruption blast radius.
//
// On-disk layout:
//
//   <dir>/store.shards        manifest: "PFATSHRD" | version | shard count
//   <dir>/shard-0000/         an ordinary VerifierStore directory
//   <dir>/shard-0001/         ...
//
// The manifest pins the shard count forever: routing is hash % N, so
// reopening with a different N would silently strand every record in the
// wrong shard.  open() writes the manifest atomically on first creation
// and refuses a mismatching explicit count afterwards.  Each shard
// directory is a plain single-store directory — every store tool
// (store-inspect, store-compact, replication) works on one shard
// unchanged, and recovery of the N shards is embarrassingly parallel
// (support::parallel_blocks), which is where the recovery speedup the
// bench measures comes from.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "store/verifier_store.hpp"

namespace pufatt::obs {
class MetricRegistry;
}

namespace pufatt::store {

inline constexpr char kManifestMagic[8] = {'P', 'F', 'A', 'T',
                                           'S', 'H', 'R', 'D'};
inline constexpr std::uint32_t kManifestVersion = 1;
inline constexpr std::size_t kMaxStoreShards = 4096;

struct ShardedStoreOptions {
  /// Shard count when *creating* a store.  On reopen the manifest wins:
  /// a non-zero value that disagrees with it is a hard StoreError
  /// (hash % N routing makes a silently changed N mean every device
  /// looks up the wrong shard); 0 means "whatever the manifest says".
  std::size_t shards = 4;
  /// Threads for parallel shard recovery; 0 = hardware_concurrency.
  std::size_t recovery_threads = 0;
  /// Applied to every shard (WAL geometry, registry striping, CRP
  /// depletion hook — the hook fires per shard, and may re-enter the
  /// sharded store exactly like the single-store contract allows).
  StoreOptions store;
};

class ShardedVerifierStore {
 public:
  /// Opens (creating if empty) the sharded store at `dir`, recovering all
  /// shards in parallel.  Throws StoreError on corruption in any shard or
  /// on a manifest/shard-count mismatch.
  static std::unique_ptr<ShardedVerifierStore> open(
      std::string dir, ShardedStoreOptions options = {});

  ShardedVerifierStore(const ShardedVerifierStore&) = delete;
  ShardedVerifierStore& operator=(const ShardedVerifierStore&) = delete;

  /// "<dir>/shard-0007" — the naming scheme replication and tooling share.
  static std::string shard_dir(const std::string& dir, std::size_t shard);
  static std::string manifest_path(const std::string& dir);

  /// Reads the shard count from `dir`'s manifest.  False when no manifest
  /// exists; StoreError when one exists but is malformed.
  static bool read_manifest(const std::string& dir, std::size_t& shards);

  /// Writes the manifest atomically (temp + fsync + rename).  Exposed for
  /// replication, which must reproduce the primary's layout at a follower.
  static void write_manifest(const std::string& dir, std::size_t shards);

  // --- routing --------------------------------------------------------------

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(const std::string& device_id) const;
  VerifierStore& shard(std::size_t index) { return *shards_[index]; }
  const VerifierStore& shard(std::size_t index) const {
    return *shards_[index];
  }

  /// Read-side device lookup routed to the owning shard's registry; wire
  /// an EmulatorCache / VerifierPool to this.
  const service::RegistryView& registry_view() const { return view_; }

  // --- forwarded operations (each routed to the owning shard) ---------------

  bool enroll(const std::string& device_id, core::EnrollmentRecord record);
  bool evict(const std::string& device_id);
  void enroll_crps(const std::string& device_id, core::CrpDatabase db);
  std::optional<core::CrpDatabase::AuthResult> authenticate_crp(
      const std::string& device_id, const alupuf::AluPuf& device,
      support::Xoshiro256pp& rng, double threshold_fraction = 0.22,
      const variation::Environment& env = variation::Environment::nominal());
  std::optional<std::size_t> crp_remaining(const std::string& device_id) const;

  // --- whole-store operations ------------------------------------------------

  void sync();     ///< group-commits every shard
  void compact();  ///< compacts every shard (independently crash-safe)

  // --- aggregates ------------------------------------------------------------

  std::size_t device_count() const;
  std::size_t total_crp_remaining() const;
  const std::string& dir() const { return dir_; }

  /// Publishes per-shard occupancy gauges into `registry`:
  ///   store.shards                 shard count (fixed by the manifest)
  ///   store.shard<i>.devices       enrolled devices routed to shard i
  ///   store.shard<i>.crp_remaining unspent CRPs held by shard i
  /// Same name-stability contract as the registry's snapshot_json(): call
  /// it again to refresh, e.g. from a serve-loop stats ticker, and the
  /// gauges land in the StatsReply "registry" section (DESIGN.md §16).
  void publish_metrics(obs::MetricRegistry& registry) const;

 private:
  /// Routes load()/contains() to the owning shard's registry.
  class RoutingView : public service::RegistryView {
   public:
    explicit RoutingView(const ShardedVerifierStore& owner) : owner_(owner) {}
    std::shared_ptr<const core::DeviceSnapshot> load(
        const std::string& device_id) const override {
      return owner_.shard_for(device_id).registry().load(device_id);
    }

   private:
    const ShardedVerifierStore& owner_;
  };

  ShardedVerifierStore(std::string dir,
                       std::vector<std::unique_ptr<VerifierStore>> shards);

  VerifierStore& shard_for(const std::string& device_id);
  const VerifierStore& shard_for(const std::string& device_id) const;

  const std::string dir_;
  std::vector<std::unique_ptr<VerifierStore>> shards_;
  RoutingView view_;
};

}  // namespace pufatt::store

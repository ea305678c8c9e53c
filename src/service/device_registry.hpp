// Striped, thread-safe registry of enrolled devices.
//
// The verifier side of a deployment owns one EnrollmentRecord per device
// (the delay table H, the attested image, the timing profile).  A service
// handling many concurrent attestations cannot funnel every record lookup
// through one mutex, so the registry stripes its map across kShards
// independent shards keyed by a hash of the device id: two requests for
// different devices almost never touch the same lock, while requests for
// the same device serialize only against that device's shard.
//
// Devices are held as shared_ptr<const core::DeviceSnapshot>: the record
// plus the nominal emulation model derived from it, built once when the
// record enters the registry (store, load_registry, store recovery) and
// outside any shard lock.  A record no verifier could serve is refused
// there, not in a pool worker.  A load hands the caller a stable snapshot
// that stays alive even if the device is evicted (de-registered)
// concurrently — readers never observe a half-updated device, and
// re-enrolling a device simply swaps the pointer.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/enrollment.hpp"
#include "core/serialize.hpp"

namespace pufatt::service {

/// Platform-stable device-id hash: FNV-1a folded through a SplitMix64
/// finalizer.  It picks a device's lock stripe; save() sorts by id, so the
/// saved bytes do not depend on it.
std::uint64_t stable_device_hash(const std::string& device_id);

class DeviceRegistry {
 public:
  /// Lock stripes: plenty below ~100 worker threads (collision probability
  /// on a random pair of ids is 1/kShards).
  static constexpr std::size_t kShards = 16;

  DeviceRegistry();

  DeviceRegistry(const DeviceRegistry&) = delete;
  DeviceRegistry& operator=(const DeviceRegistry&) = delete;
  /// Movable (shards live behind unique_ptr): load_registry returns one.
  /// Moving while another thread uses the source is, of course, a race.
  DeviceRegistry(DeviceRegistry&&) = default;
  DeviceRegistry& operator=(DeviceRegistry&&) = default;

  /// Registers (or re-enrolls) a device.  Returns false when the id was
  /// already present (the snapshot is replaced either way).  An id longer
  /// than support::kMaxDeviceIdBytes throws std::invalid_argument.
  bool store(const std::string& device_id,
             std::shared_ptr<const core::DeviceSnapshot> snapshot);
  /// Builds the record's snapshot first, so a record core::DeviceSnapshot
  /// refuses throws std::invalid_argument and leaves the registry as it
  /// was.
  bool store(const std::string& device_id, core::EnrollmentRecord record);

  /// nullptr when the device is unknown.
  std::shared_ptr<const core::DeviceSnapshot> load(
      const std::string& device_id) const;

  bool contains(const std::string& device_id) const;

  /// De-registers a device; outstanding shared_ptrs stay valid.
  bool evict(const std::string& device_id);

  std::size_t size() const;

  /// Ids currently registered, sorted (joins all shards; intended for
  /// tooling and tests, not hot paths).
  std::vector<std::string> device_ids() const;

  // --- persistence (reuses core/serialize's record format) ------------------
  // "PFATREG1" | count (u64) | per device, sorted by id:
  //   id length (u64) | id bytes | core::save_record bytes
  // little-endian throughout.

  /// Appends every (id, record) pair.  The snapshot is taken shard by
  /// shard: it is consistent per device, not across devices mutated
  /// mid-save.
  void save(support::ByteWriter& out) const;

  /// Reads a registry written by save() at the cursor; throws
  /// core::SerializationError on malformed input, a record
  /// core::DeviceSnapshot refuses included.
  static DeviceRegistry load_registry(
      support::ByteReader<core::SerializationError>& in);

  /// Atomic: writes `path + ".tmp"` then renames it over `path`, so a
  /// crash mid-save never leaves a torn snapshot — readers see either the
  /// old complete file or the new complete file.
  void save_file(const std::string& path) const;
  /// Refuses a file holding anything after the registry.
  static DeviceRegistry load_registry_file(const std::string& path);

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string,
                       std::shared_ptr<const core::DeviceSnapshot>>
        records;
  };

  Shard& shard_for(const std::string& device_id);
  const Shard& shard_for(const std::string& device_id) const;

  /// Behind a pointer so the registry stays movable (mutexes are not).
  std::unique_ptr<std::array<Shard, kShards>> shards_;
};

}  // namespace pufatt::service

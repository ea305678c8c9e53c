// LRU cache of constructed verifiers.
//
// A core::Verifier is an immutable value over the registry's own device
// snapshot (it holds the snapshot's pointer, never a copy): the record and
// the nominal emulation model the registry derived from H when the record
// entered it.  A miss therefore derives nothing; it builds the verifier's
// helper-data and obfuscation shell over the snapshot's model, bounded by
// `capacity`.
// Every acquire re-loads the device's snapshot and hits only while the
// registry still holds the snapshot the cached verifier was built from
// (pointer identity, Verifier::snapshot): a revoked device gets no
// verifier, a re-enrolled one is rebuilt as a miss even when its new
// record is byte-equal to the old.  The verifier keeps its snapshot alive,
// so a pointer the cache compares against can never have been freed and
// reused by another snapshot.
//
// On a miss the verifier is constructed *outside* the cache lock; if two
// threads miss the same id simultaneously both construct and the loser's
// instance is discarded — wasted work, never a wrong result.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/protocol.hpp"
#include "ecc/linear_code.hpp"
#include "obs/trace.hpp"
#include "service/device_registry.hpp"

namespace pufatt::service {

struct CacheCounters {
  std::size_t hits = 0;
  std::size_t misses = 0;      ///< lookups that found no current entry
  std::size_t evictions = 0;   ///< entries pushed out by capacity
  std::size_t discarded = 0;   ///< lost construction races (miss storms)
};

class EmulatorCache {
 public:
  /// `registry` and `code` must outlive the cache.  `channel`/`slack` are
  /// forwarded to every constructed Verifier.
  EmulatorCache(const DeviceRegistry& registry, const ecc::BinaryCode& code,
                std::size_t capacity, const core::ChannelParams& channel = {},
                double slack = 0.03);

  EmulatorCache(const EmulatorCache&) = delete;
  EmulatorCache& operator=(const EmulatorCache&) = delete;

  /// The device's verifier, which stays valid however long the caller
  /// holds it, even if the cache evicts or rebuilds the entry meanwhile.
  /// Any number of threads may run sessions on it at once.  Empty when
  /// the device is not registered (unknown or revoked).
  std::shared_ptr<const core::Verifier> acquire(const std::string& device_id) {
    return acquire(device_id, {});
  }

  /// As above, recording a "cache.acquire" span under `trace` covering
  /// lookup + (on a miss) construction, with a hit=0/1 note; misses get a
  /// nested "cache.build" span around the verifier construction itself.
  std::shared_ptr<const core::Verifier> acquire(const std::string& device_id,
                                                const obs::TraceScope& trace);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  CacheCounters counters() const;

 private:
  struct Slot {
    std::shared_ptr<const core::Verifier> verifier;
    std::list<std::string>::iterator lru_it;
  };

  using SlotIt = std::unordered_map<std::string, Slot>::iterator;

  /// Marks `it` most-recently-used.  Caller holds mutex_.
  void touch(SlotIt it);
  /// Drops `it` from the map and the LRU list.  Caller holds mutex_.
  void erase(SlotIt it);

  const DeviceRegistry* registry_;
  const ecc::BinaryCode* code_;
  std::size_t capacity_;
  core::ChannelParams channel_;
  double slack_;

  mutable std::mutex mutex_;
  std::list<std::string> lru_;  ///< MRU at the front; eviction pops the back
  std::unordered_map<std::string, Slot> map_;
  CacheCounters counters_;
};

}  // namespace pufatt::service

// LRU cache of constructed verifiers.
//
// A core::Verifier is an immutable value over the process-wide shared
// circuit (alupuf::shared_circuit): cheap to build, but not free, so the
// cache amortizes construction across requests, bounded by `capacity`.
// Every acquire re-loads the device's record and hits only while the
// registry still holds the snapshot the entry was built from: a revoked
// device gets an empty lease, a re-enrolled one is rebuilt as a miss.
//
// Concurrency contract: verify() is safe to run concurrently on one
// verifier, but the in-process *simulated device* behind a served job is
// not — every responder of a device shares one alupuf::PufDevice, whose
// AluPuf keeps per-environment caches and scratch under const.  acquire()
// therefore returns a *lease*: an RAII object holding a shared_ptr to the
// entry (it survives concurrent eviction) and that entry's session mutex.
// Two requests for the same device serialize on the lease, which is the
// physically faithful behaviour anyway: a real device can only execute
// one attestation at a time.  Requests for different devices never share
// a lease and run fully in parallel.
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
  struct Entry {
    Entry(std::shared_ptr<const core::EnrollmentRecord> from,
          const ecc::BinaryCode& code, const core::ChannelParams& channel,
          double slack)
        : record(std::move(from)), verifier(*record, code, channel, slack) {}
    /// The registry snapshot the verifier was built from.
    std::shared_ptr<const core::EnrollmentRecord> record;
    core::Verifier verifier;
    std::mutex session_mutex;  ///< one attestation session at a time
  };

 public:
  /// `registry` and `code` must outlive the cache.  `channel`/`slack` are
  /// forwarded to every constructed Verifier.  Any RegistryView works —
  /// a plain DeviceRegistry or a sharded store's routing view — since the
  /// cache only ever loads records by id.
  EmulatorCache(const RegistryView& registry, const ecc::BinaryCode& code,
                std::size_t capacity, const core::ChannelParams& channel = {},
                double slack = 0.03);

  EmulatorCache(const EmulatorCache&) = delete;
  EmulatorCache& operator=(const EmulatorCache&) = delete;

  class Lease {
   public:
    Lease() = default;
    explicit operator bool() const { return entry_ != nullptr; }
    /// Valid for the lease's lifetime; exclusive across threads.
    const core::Verifier& verifier() const { return entry_->verifier; }

   private:
    friend class EmulatorCache;
    explicit Lease(std::shared_ptr<Entry> entry)
        : entry_(std::move(entry)), session_lock_(entry_->session_mutex) {}
    std::shared_ptr<Entry> entry_;
    std::unique_lock<std::mutex> session_lock_;
  };

  /// Blocks while another thread holds this device's lease.  Returns an
  /// empty lease when the device is not registered.
  Lease acquire(const std::string& device_id) { return acquire(device_id, {}); }

  /// As above, recording a "cache.acquire" span under `trace` covering
  /// lookup + (on a miss) construction + the wait for the device lease,
  /// with a hit=0/1 note; misses get a nested "cache.build" span around
  /// the verifier construction itself, which separates "the emulator was
  /// cold" from "the device was busy" in a trace.
  Lease acquire(const std::string& device_id, const obs::TraceScope& trace);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  CacheCounters counters() const;

 private:
  struct Slot {
    std::shared_ptr<Entry> entry;
    std::list<std::string>::iterator lru_it;
  };

  using SlotIt = std::unordered_map<std::string, Slot>::iterator;

  /// Marks `it` most-recently-used.  Caller holds mutex_.
  void touch(SlotIt it);
  /// Drops `it` from the map and the LRU list.  Caller holds mutex_.
  void erase(SlotIt it);

  const RegistryView* registry_;
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

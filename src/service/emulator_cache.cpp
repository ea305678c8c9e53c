#include "service/emulator_cache.hpp"

#include <stdexcept>

namespace pufatt::service {

EmulatorCache::EmulatorCache(const DeviceRegistry& registry,
                             const ecc::BinaryCode& code, std::size_t capacity,
                             const core::ChannelParams& channel, double slack)
    : registry_(&registry),
      code_(&code),
      capacity_(capacity),
      channel_(channel),
      slack_(slack) {
  if (capacity == 0) {
    throw std::invalid_argument("EmulatorCache: zero capacity");
  }
}

void EmulatorCache::touch(SlotIt it) {
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
}

void EmulatorCache::erase(SlotIt it) {
  lru_.erase(it->second.lru_it);
  map_.erase(it);
}

std::shared_ptr<const core::Verifier> EmulatorCache::acquire(
    const std::string& device_id, const obs::TraceScope& trace) {
  obs::Span acquire_span = trace.span("cache.acquire");
  const auto snapshot = registry_->load(device_id);
  std::shared_ptr<const core::Verifier> verifier;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(device_id);
    if (snapshot && it != map_.end() &&
        it->second.verifier->snapshot() == snapshot) {
      ++counters_.hits;
      touch(it);
      verifier = it->second.verifier;
    } else {
      ++counters_.misses;
      if (!snapshot && it != map_.end()) erase(it);  // revoked
    }
  }
  acquire_span.note("hit", verifier ? 1.0 : 0.0);
  if (!snapshot) return nullptr;

  if (!verifier) {
    // Construction happens unlocked so it never stalls unrelated lookups.
    obs::Span build_span = acquire_span.child("cache.build");
    auto fresh = std::make_shared<const core::Verifier>(snapshot, *code_,
                                                        channel_, slack_);
    build_span.end();

    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(device_id);
    if (it != map_.end() && it->second.verifier->snapshot() == snapshot) {
      // Another thread won the construction race; use its verifier.
      ++counters_.discarded;
      touch(it);
      verifier = it->second.verifier;
    } else {
      if (it != map_.end()) erase(it);  // built from an older snapshot
      lru_.push_front(device_id);
      map_.emplace(device_id, Slot{fresh, lru_.begin()});
      verifier = std::move(fresh);
      if (map_.size() > capacity_) {
        erase(map_.find(lru_.back()));  // in-flight sessions keep it alive
        ++counters_.evictions;
      }
    }
  }
  return verifier;
}

std::size_t EmulatorCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

CacheCounters EmulatorCache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace pufatt::service

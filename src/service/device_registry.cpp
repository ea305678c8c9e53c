#include "service/device_registry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/serialize.hpp"
#include "support/fsyncutil.hpp"
#include "support/rng.hpp"

namespace pufatt::service {

namespace {

constexpr char kRegistryMagic[8] = {'P', 'F', 'A', 'T', 'R', 'E', 'G', '1'};

}  // namespace

// FNV-1a, then a SplitMix64 finalizer: std::hash<std::string> is
// implementation-defined, and this keeps stripe assignment the same on
// every platform.
std::uint64_t stable_device_hash(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return support::SplitMix64::mix(h);
}

DeviceRegistry::DeviceRegistry()
    : shards_(std::make_unique<std::array<Shard, kShards>>()) {}

DeviceRegistry::Shard& DeviceRegistry::shard_for(const std::string& id) {
  return (*shards_)[stable_device_hash(id) % kShards];
}

const DeviceRegistry::Shard& DeviceRegistry::shard_for(
    const std::string& id) const {
  return (*shards_)[stable_device_hash(id) % kShards];
}

bool DeviceRegistry::store(
    const std::string& device_id,
    std::shared_ptr<const core::DeviceSnapshot> snapshot) {
  support::check_device_id(device_id, "DeviceRegistry::store");
  Shard& shard = shard_for(device_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.records.insert_or_assign(device_id, std::move(snapshot)).second;
}

bool DeviceRegistry::store(const std::string& device_id,
                           core::EnrollmentRecord record) {
  return store(device_id, std::make_shared<const core::DeviceSnapshot>(
                              std::move(record)));
}

std::shared_ptr<const core::DeviceSnapshot> DeviceRegistry::load(
    const std::string& device_id) const {
  const Shard& shard = shard_for(device_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.records.find(device_id);
  return it == shard.records.end() ? nullptr : it->second;
}

bool DeviceRegistry::contains(const std::string& device_id) const {
  return load(device_id) != nullptr;
}

bool DeviceRegistry::evict(const std::string& device_id) {
  Shard& shard = shard_for(device_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.records.erase(device_id) > 0;
}

std::size_t DeviceRegistry::size() const {
  std::size_t n = 0;
  for (const auto& shard : *shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    n += shard.records.size();
  }
  return n;
}

std::vector<std::string> DeviceRegistry::device_ids() const {
  std::vector<std::string> ids;
  for (const auto& shard : *shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [id, record] : shard.records) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void DeviceRegistry::save(support::ByteWriter& out) const {
  // Snapshot (id, record) pairs shard by shard, then write sorted so the
  // byte stream is independent of hash order.
  std::vector<std::pair<std::string,
                        std::shared_ptr<const core::DeviceSnapshot>>>
      entries;
  for (const auto& shard : *shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& entry : shard.records) entries.push_back(entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  out.raw(kRegistryMagic, sizeof(kRegistryMagic));
  out.u64(entries.size());
  for (const auto& [id, record] : entries) {
    out.u64(id.size());
    out.raw(id.data(), id.size());
    core::save_record(out, *record);
  }
}

DeviceRegistry DeviceRegistry::load_registry(
    support::ByteReader<core::SerializationError>& in) {
  if (std::memcmp(in.take(8), kRegistryMagic, 8) != 0) {
    throw core::SerializationError("DeviceRegistry: bad magic");
  }
  const std::uint64_t count = in.u64();
  if (count > (1ULL << 32)) {
    throw core::SerializationError("DeviceRegistry: bad entry count");
  }
  DeviceRegistry registry;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string id = in.bytes(in.u64(), support::kMaxDeviceIdBytes,
                                    "DeviceRegistry: bad id length");
    auto record = core::load_record(in);
    try {
      registry.store(id, std::move(record));
    } catch (const std::invalid_argument& e) {
      throw core::SerializationError("DeviceRegistry: device '" + id +
                                     "' refused: " + e.what());
    }
  }
  return registry;
}

void DeviceRegistry::save_file(const std::string& path) const {
  // Atomic snapshot: write to a sibling temp file, fsync it, then rename
  // over the target and fsync the directory.  A crash (or any failure)
  // mid-save can only ever lose the temp file — the previous snapshot at
  // `path` stays intact and loadable — and the temp file's bytes are
  // durable before the rename can be, so a reader never sees a
  // named-but-truncated file after power loss.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw core::SerializationError("cannot open " + tmp);
    support::ByteWriter bytes;
    save(bytes);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw core::SerializationError("write failed: " + tmp);
    }
  }
  support::fsync_path(tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw core::SerializationError("cannot rename " + tmp + " -> " + path);
  }
  support::fsync_parent_dir(path);
}

DeviceRegistry DeviceRegistry::load_registry_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  if (!support::read_file(path, bytes)) {
    throw core::SerializationError("cannot open " + path);
  }
  support::ByteReader<core::SerializationError> in(bytes,
                                                   "DeviceRegistry: truncated");
  auto registry = load_registry(in);
  in.expect_end("DeviceRegistry: trailing bytes");
  return registry;
}

}  // namespace pufatt::service

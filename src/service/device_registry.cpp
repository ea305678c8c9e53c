#include "service/device_registry.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
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

DeviceRegistry::DeviceRegistry(std::size_t shards) {
  shards_.reserve(std::max<std::size_t>(shards, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(shards, 1); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

DeviceRegistry::Shard& DeviceRegistry::shard_for(const std::string& id) {
  return *shards_[stable_device_hash(id) % shards_.size()];
}

const DeviceRegistry::Shard& DeviceRegistry::shard_for(
    const std::string& id) const {
  return *shards_[stable_device_hash(id) % shards_.size()];
}

bool DeviceRegistry::store(
    const std::string& device_id,
    std::shared_ptr<const core::DeviceSnapshot> snapshot) {
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
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    n += shard->records.size();
  }
  return n;
}

std::vector<std::string> DeviceRegistry::device_ids() const {
  std::vector<std::string> ids;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [id, record] : shard->records) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void DeviceRegistry::save(std::ostream& out) const {
  // Snapshot (id, record) pairs shard by shard, then write sorted so the
  // byte stream is independent of hash order.
  std::vector<std::pair<std::string,
                        std::shared_ptr<const core::DeviceSnapshot>>>
      entries;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& entry : shard->records) entries.push_back(entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  out.write(kRegistryMagic, sizeof(kRegistryMagic));
  const std::uint64_t count = entries.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& [id, record] : entries) {
    const std::uint64_t len = id.size();
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write(id.data(), static_cast<std::streamsize>(id.size()));
    core::save_record(out, *record);
  }
  if (!out) throw core::SerializationError("DeviceRegistry: write failed");
}

DeviceRegistry DeviceRegistry::load_registry(std::istream& in,
                                             std::size_t shards) {
  char magic[sizeof(kRegistryMagic)] = {};
  in.read(magic, sizeof(magic));
  if (!in || !std::equal(magic, magic + sizeof(magic), kRegistryMagic)) {
    throw core::SerializationError("DeviceRegistry: bad magic");
  }
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || count > (1ULL << 32)) {
    throw core::SerializationError("DeviceRegistry: bad entry count");
  }
  DeviceRegistry registry(shards);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    in.read(reinterpret_cast<char*>(&len), sizeof(len));
    if (!in || len > (1ULL << 16)) {
      throw core::SerializationError("DeviceRegistry: bad id length");
    }
    std::string id(len, '\0');
    in.read(id.data(), static_cast<std::streamsize>(len));
    if (!in) throw core::SerializationError("DeviceRegistry: truncated id");
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
    save(out);
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

DeviceRegistry DeviceRegistry::load_registry_file(const std::string& path,
                                                  std::size_t shards) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw core::SerializationError("cannot open " + path);
  return load_registry(in, shards);
}

}  // namespace pufatt::service

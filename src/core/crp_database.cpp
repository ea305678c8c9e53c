#include "core/crp_database.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/serialize.hpp"

namespace pufatt::core {

namespace {

constexpr std::uint32_t kCrpMagic = 0x50435244;  // "PCRD"
constexpr std::uint32_t kCrpVersion = 1;
constexpr std::uint32_t kMaxCrpEntries = 1u << 20;
constexpr std::uint32_t kMaxCrpBits = 1u << 16;

using Reader = support::ByteReader<SerializationError>;

void write_bits(support::ByteWriter& out, const support::BitVector& v) {
  out.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto word : v.words()) out.u64(word);
}

support::BitVector read_bits(Reader& in) {
  const std::uint32_t bits = in.u32();
  if (bits > kMaxCrpBits) {
    throw SerializationError("CrpDatabase: bit vector too large");
  }
  support::BitVector v(bits);
  const std::size_t words = (bits + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t word = in.u64();
    for (std::size_t b = 0; b < 64; ++b) {
      const std::size_t i = 64 * w + b;
      if (i < bits) v.set(i, (word >> b) & 1);
    }
  }
  return v;
}

}  // namespace

CrpDatabase CrpDatabase::collect(const alupuf::AluPuf& device,
                                 std::size_t count,
                                 support::Xoshiro256pp& rng,
                                 std::size_t challenges_per_entry) {
  CrpDatabase db;
  db.entries_.reserve(count);
  const auto env = variation::Environment::nominal();
  for (std::size_t i = 0; i < count; ++i) {
    Entry entry;
    for (std::size_t c = 0; c < challenges_per_entry; ++c) {
      entry.challenges.push_back(
          support::BitVector::random(device.challenge_bits(), rng));
      entry.references.push_back(device.eval(entry.challenges.back(), env, rng));
    }
    db.entries_.push_back(std::move(entry));
  }
  return db;
}

CrpDatabase::AuthResult CrpDatabase::authenticate(
    const alupuf::AluPuf& device, support::Xoshiro256pp& rng,
    double threshold_fraction, const variation::Environment& env) {
  AuthResult result;
  if (next_unused_ >= entries_.size()) {
    result.exhausted = true;
    return result;
  }
  Entry& entry = entries_[next_unused_++];
  entry.used = true;  // single-use: consumed even on failure (anti-replay)
  for (std::size_t c = 0; c < entry.challenges.size(); ++c) {
    const auto response = device.eval(entry.challenges[c], env, rng);
    result.distance += response.hamming_distance(entry.references[c]);
    result.compared_bits += response.size();
  }
  result.accepted =
      static_cast<double>(result.distance) <=
      threshold_fraction * static_cast<double>(result.compared_bits);
  return result;
}

void CrpDatabase::mark_consumed_through(std::size_t index) {
  if (index >= entries_.size()) {
    throw std::out_of_range("CrpDatabase: consume marker past the last entry");
  }
  for (std::size_t i = next_unused_; i <= index; ++i) entries_[i].used = true;
  next_unused_ = std::max(next_unused_, index + 1);
}

void CrpDatabase::save(support::ByteWriter& out) const {
  out.u32(kCrpMagic);
  out.u32(kCrpVersion);
  out.u32(static_cast<std::uint32_t>(entries_.size()));
  out.u32(static_cast<std::uint32_t>(next_unused_));
  for (const auto& entry : entries_) {
    out.u32(static_cast<std::uint32_t>(entry.challenges.size()));
    for (std::size_t c = 0; c < entry.challenges.size(); ++c) {
      write_bits(out, entry.challenges[c]);
      write_bits(out, entry.references[c]);
    }
  }
}

CrpDatabase CrpDatabase::load(Reader& in) {
  if (in.u32() != kCrpMagic) {
    throw SerializationError("CrpDatabase: bad magic");
  }
  if (in.u32() != kCrpVersion) {
    throw SerializationError("CrpDatabase: unsupported version");
  }
  const std::uint32_t count = in.u32();
  if (count > kMaxCrpEntries) {
    throw SerializationError("CrpDatabase: entry count too large");
  }
  const std::uint32_t cursor = in.u32();
  if (cursor > count) {
    throw SerializationError("CrpDatabase: consume cursor past the end");
  }
  CrpDatabase db;
  db.entries_.resize(count);
  for (auto& entry : db.entries_) {
    const std::uint32_t challenges = in.u32();
    if (challenges > kMaxCrpEntries) {
      throw SerializationError("CrpDatabase: entry too large");
    }
    entry.challenges.reserve(challenges);
    entry.references.reserve(challenges);
    for (std::uint32_t c = 0; c < challenges; ++c) {
      entry.challenges.push_back(read_bits(in));
      entry.references.push_back(read_bits(in));
    }
  }
  db.next_unused_ = cursor;
  for (std::size_t i = 0; i < cursor; ++i) db.entries_[i].used = true;
  return db;
}

std::size_t CrpDatabase::storage_bytes() const {
  if (entries_.empty()) return 0;
  std::size_t bits = 0;
  for (std::size_t c = 0; c < entries_.front().challenges.size(); ++c) {
    bits += entries_.front().challenges[c].size() +
            entries_.front().references[c].size();
  }
  return entries_.size() * ((bits + 7) / 8);
}

}  // namespace pufatt::core

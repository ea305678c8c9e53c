// The one byte codec under every wire and disk format: enrollment
// records, CRP databases, the device registry, the CRP ledger, store
// snapshots, WAL segments and payloads, and the frames of core/serialize
// and net/frame.  All are little-endian, and every decoder turns truncated,
// oversized or trailing input into its format's own exception.
//
//   load_le32/load_le64/store_le32  fixed-offset access, for headers whose
//                                   length is checked up front
//   ByteWriter                      appends a format front to back
//   ByteReader<Error>               the bounds-checked cursor; throws Error,
//                                   the type its format already throws
//
// A format embedded in another (a record in a WAL payload, the registry
// and ledger in a snapshot) is read by a reader continuing the outer one's
// cursor, so nothing is copied out first.  Device ids have one bound,
// kMaxDeviceIdBytes, refused by every writer and every reader alike.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pufatt::support {

/// Largest device id, in bytes, any writer accepts and any reader decodes.
inline constexpr std::size_t kMaxDeviceIdBytes = 1024;

/// Throws std::invalid_argument, naming `who`, when `device_id` is longer
/// than kMaxDeviceIdBytes.  Writers call it before they log or store.
inline void check_device_id(std::string_view device_id, const char* who) {
  if (device_id.size() > kMaxDeviceIdBytes) {
    throw std::invalid_argument(std::string(who) + ": device id exceeds " +
                                std::to_string(kMaxDeviceIdBytes) + " bytes");
  }
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t load_le64(const std::uint8_t* p) {
  return load_le32(p) | (static_cast<std::uint64_t>(load_le32(p + 4)) << 32);
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Appends little-endian fields to a byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { bytes_.reserve(reserve); }

  void u32(std::uint32_t v) {
    std::uint8_t b[4];
    store_le32(b, v);
    raw(b, 4);
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }
  /// A u32 length, then the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  const std::uint8_t* data() const { return bytes_.data(); }
  std::size_t size() const { return bytes_.size(); }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian cursor over bytes it does not own.  Every
/// failure throws Error; `truncated` is the message of a read past the end.
template <class Error>
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size,
             const char* truncated = "unexpected end of input")
      : data_(data), size_(size), pos_(&own_pos_), truncated_(truncated) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes,
                      const char* truncated = "unexpected end of input")
      : ByteReader(bytes.data(), bytes.size(), truncated) {}

  /// Continues `outer`'s cursor for a format embedded in it: reads advance
  /// `outer` too, and fail with this reader's Error and message.
  template <class Outer>
  ByteReader(ByteReader<Outer>& outer, const char* truncated)
      : data_(outer.data_),
        size_(outer.size_),
        pos_(outer.pos_),
        truncated_(truncated) {}

  ByteReader(const ByteReader&) = delete;
  ByteReader& operator=(const ByteReader&) = delete;

  std::size_t remaining() const { return size_ - *pos_; }

  /// The next `n` bytes, in place.
  const std::uint8_t* take(std::size_t n) {
    if (remaining() < n) throw Error(truncated_);
    const std::uint8_t* p = data_ + *pos_;
    *pos_ += n;
    return p;
  }

  std::uint32_t u32() { return load_le32(take(4)); }
  std::uint64_t u64() { return load_le64(take(8)); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// `n` bytes, where `n` is a declared length: a length above `max`
  /// throws `too_long` before it sizes anything.
  std::string bytes(std::uint64_t n, std::size_t max, const char* too_long) {
    if (n > max) throw Error(too_long);
    const std::uint8_t* p = take(static_cast<std::size_t>(n));
    return std::string(reinterpret_cast<const char*>(p),
                       static_cast<std::size_t>(n));
  }
  /// A u32 length prefix, then bytes(length, max, too_long).
  std::string str(std::size_t max, const char* too_long) {
    return bytes(u32(), max, too_long);
  }

  void expect_end(const char* trailing) const {
    if (remaining() != 0) throw Error(trailing);
  }

 private:
  template <class>
  friend class ByteReader;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t own_pos_ = 0;
  std::size_t* pos_;  ///< own_pos_, or the outer reader's cursor
  const char* truncated_;
};

/// The whole file at `path`; false when it cannot be opened.
bool read_file(const std::string& path, std::vector<std::uint8_t>& out);

}  // namespace pufatt::support

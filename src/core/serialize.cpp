#include "core/serialize.hpp"

#include <array>
#include <fstream>

namespace pufatt::core {

namespace {

using Reader = support::ByteReader<SerializationError>;

constexpr std::uint32_t kMagic = 0x50554154;  // "PUAT"
constexpr std::uint32_t kVersion = 1;
// Sanity bound on record vector lengths: the biggest honest array is a
// firmware image of a few thousand words, so 4M elements is already generous.
// The check fires on the *declared* length, before the allocation it sizes.
constexpr std::size_t kMaxVectorLen = 1u << 22;

std::uint32_t read_count(Reader& in) {
  const std::uint32_t n = in.u32();
  if (n > kMaxVectorLen) throw SerializationError("vector too large");
  return n;
}

void write_f64_vector(support::ByteWriter& out, const std::vector<double>& v) {
  out.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto x : v) out.f64(x);
}

std::vector<double> read_f64_vector(Reader& in) {
  std::vector<double> v(read_count(in));
  for (auto& x : v) x = in.f64();
  return v;
}

void write_tech(support::ByteWriter& out, const variation::TechnologyParams& t) {
  for (const double v :
       {t.vdd_nominal_v, t.vth_nominal_v, t.vth_sigma_ratio, t.alpha,
        t.temp_nominal_c, t.vth_temp_coeff, t.vth_temp_coeff_sigma,
        t.mobility_exp, t.wire_fraction_mean, t.wire_fraction_sigma,
        t.wire_temp_coeff, t.rise_fall_asym_sigma, t.design_asym_sigma}) {
    out.f64(v);
  }
}

variation::TechnologyParams read_tech(Reader& in) {
  variation::TechnologyParams t;
  for (double* v :
       {&t.vdd_nominal_v, &t.vth_nominal_v, &t.vth_sigma_ratio, &t.alpha,
        &t.temp_nominal_c, &t.vth_temp_coeff, &t.vth_temp_coeff_sigma,
        &t.mobility_exp, &t.wire_fraction_mean, &t.wire_fraction_sigma,
        &t.wire_temp_coeff, &t.rise_fall_asym_sigma, &t.design_asym_sigma}) {
    *v = in.f64();
  }
  return t;
}

}  // namespace

void save_record(support::ByteWriter& out, const EnrollmentRecord& record) {
  out.u32(kMagic);
  out.u32(kVersion);

  // Profile.
  const auto& p = record.profile;
  out.u32(static_cast<std::uint32_t>(p.puf_config.width));
  write_tech(out, p.puf_config.tech);
  out.f64(p.puf_config.noise.delay_jitter_ratio);
  out.f64(p.puf_config.arbiter.meta_tau_ps);
  for (const std::uint32_t v :
       {p.swat.rounds, p.swat.puf_interval, p.swat.attest_words,
        p.layout.seed_addr, p.layout.result_addr, p.layout.helper_ptr_addr,
        p.layout.helper_addr}) {
    out.u32(v);
  }
  out.f64(p.base_clock_mhz);
  out.f64(p.clock_margin);
  out.f64(p.register_setup_ps);

  // Model H.
  write_tech(out, record.model.tech);
  write_f64_vector(out, record.model.intrinsic_ps);
  write_f64_vector(out, record.model.wire_ps);
  write_f64_vector(out, record.model.vth_v);
  write_f64_vector(out, record.model.vth_tempco);
  write_f64_vector(out, record.model.rise_factor);
  write_f64_vector(out, record.model.fall_factor);

  // Image + timing.
  out.u32(static_cast<std::uint32_t>(record.enrolled_image.size()));
  for (const auto word : record.enrolled_image) out.u32(word);
  out.u64(record.honest_cycles);
}

EnrollmentRecord load_record(Reader& in) {
  if (in.u32() != kMagic) {
    throw SerializationError("bad magic (not an enrollment record)");
  }
  if (in.u32() != kVersion) {
    throw SerializationError("unsupported enrollment record version");
  }
  EnrollmentRecord record;
  auto& p = record.profile;
  p.puf_config.width = in.u32();
  p.puf_config.tech = read_tech(in);
  p.puf_config.noise.delay_jitter_ratio = in.f64();
  p.puf_config.arbiter.meta_tau_ps = in.f64();
  for (std::uint32_t* v :
       {&p.swat.rounds, &p.swat.puf_interval, &p.swat.attest_words,
        &p.layout.seed_addr, &p.layout.result_addr, &p.layout.helper_ptr_addr,
        &p.layout.helper_addr}) {
    *v = in.u32();
  }
  p.base_clock_mhz = in.f64();
  p.clock_margin = in.f64();
  p.register_setup_ps = in.f64();

  record.model.tech = read_tech(in);
  record.model.intrinsic_ps = read_f64_vector(in);
  record.model.wire_ps = read_f64_vector(in);
  record.model.vth_v = read_f64_vector(in);
  record.model.vth_tempco = read_f64_vector(in);
  record.model.rise_factor = read_f64_vector(in);
  record.model.fall_factor = read_f64_vector(in);

  const std::size_t gates = record.model.intrinsic_ps.size();
  if (record.model.wire_ps.size() != gates ||
      record.model.vth_v.size() != gates ||
      record.model.vth_tempco.size() != gates ||
      record.model.rise_factor.size() != gates ||
      record.model.fall_factor.size() != gates) {
    throw SerializationError("delay table arrays have inconsistent sizes");
  }

  record.enrolled_image.resize(read_count(in));
  for (auto& word : record.enrolled_image) word = in.u32();
  record.honest_cycles = in.u64();
  if (record.enrolled_image.size() != record.profile.swat.attest_words) {
    throw SerializationError("image size does not match the attested region");
  }
  return record;
}

namespace {

constexpr std::uint32_t kRequestMagic = 0x50415251;   // "PARQ"
constexpr std::uint32_t kResponseMagic = 0x50415253;  // "PARS"

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> serialize_request(const AttestationRequest& request) {
  support::ByteWriter out(16);
  out.u32(kRequestMagic);
  out.u64(request.nonce);
  out.u32(crc32(out.data(), out.size()));
  return out.take();
}

AttestationRequest deserialize_request(const std::vector<std::uint8_t>& frame) {
  if (frame.size() > kMaxWireFrameBytes) {
    throw SerializationError("frame exceeds wire limit");
  }
  if (frame.size() != 16) {
    throw SerializationError("request frame has wrong size");
  }
  const std::uint8_t* data = frame.data();
  if (support::load_le32(data) != kRequestMagic) {
    throw SerializationError("bad request magic");
  }
  if (crc32(data, 12) != support::load_le32(data + 12)) {
    throw SerializationError("frame CRC mismatch (corrupted in transit)");
  }
  AttestationRequest request;
  request.nonce = support::load_le64(data + 4);
  return request;
}

std::vector<std::uint8_t> serialize_response(
    const AttestationResponse& response) {
  support::ByteWriter out(8 + 4 * (8 + response.helper_words.size()) + 4);
  out.u32(kResponseMagic);
  out.u32(static_cast<std::uint32_t>(response.helper_words.size()));
  for (const auto word : response.checksum) out.u32(word);
  for (const auto word : response.helper_words) out.u32(word);
  out.u32(crc32(out.data(), out.size()));
  return out.take();
}

AttestationResponse deserialize_response(
    const std::vector<std::uint8_t>& frame) {
  const std::uint8_t* data = frame.data();
  const std::size_t size = frame.size();
  constexpr std::size_t kHeaderBytes = 4 + 4 + 8 * 4;  // magic, count, checksum
  if (size > kMaxWireFrameBytes) {
    throw SerializationError("frame exceeds wire limit");
  }
  if (size < kHeaderBytes + 4) {
    throw SerializationError("response frame truncated");
  }
  if (support::load_le32(data) != kResponseMagic) {
    throw SerializationError("bad response magic");
  }
  const std::uint32_t helper_count = support::load_le32(data + 4);
  if (helper_count > kMaxWireHelperWords) {
    throw SerializationError("helper transcript exceeds wire limit");
  }
  if (helper_count % 8 != 0) {
    throw SerializationError("helper count is not a multiple of 8");
  }
  const std::size_t expected =
      kHeaderBytes + static_cast<std::size_t>(helper_count) * 4 + 4;
  if (size != expected) {
    throw SerializationError(size < expected
                                 ? "response frame truncated"
                                 : "response frame has trailing bytes");
  }
  if (crc32(data, size - 4) != support::load_le32(data + size - 4)) {
    throw SerializationError("frame CRC mismatch (corrupted in transit)");
  }
  AttestationResponse response;
  for (unsigned i = 0; i < 8; ++i) {
    response.checksum[i] = support::load_le32(data + 8 + 4 * i);
  }
  response.helper_words.resize(helper_count);
  for (std::uint32_t i = 0; i < helper_count; ++i) {
    response.helper_words[i] = support::load_le32(data + kHeaderBytes + 4 * i);
  }
  return response;
}

void save_record_file(const std::string& path, const EnrollmentRecord& record) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw SerializationError("cannot open file for writing: " + path);
  support::ByteWriter bytes;
  save_record(bytes, record);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw SerializationError("write failed: " + path);
}

EnrollmentRecord load_record_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  if (!support::read_file(path, bytes)) {
    throw SerializationError("cannot open file: " + path);
  }
  Reader in(bytes);
  auto record = load_record(in);
  in.expect_end("trailing bytes after the enrollment record");
  return record;
}

}  // namespace pufatt::core

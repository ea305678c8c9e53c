// Every wire and disk format, pinned and fuzzed at its edges.
//
// Each format is encoded from fixed seeds and compared against a digest
// of its bytes taken before the formats moved onto support/bytes, so a
// codec change that shifts one byte anywhere fails here.  The inputs
// avoid floating-point arithmetic (the delay table is drawn straight from
// the generator), so the digests hold on every build tree.
//
// Then every decoder is fed each strict prefix of a valid encoding and
// that encoding plus one byte, and must refuse each with the exception
// type its format throws: core::SerializationError for records, CRP
// databases, the registry and the protocol frames; store::StoreError for
// the ledger, the snapshot and the WAL payloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/crp_database.hpp"
#include "core/enrollment.hpp"
#include "core/serialize.hpp"
#include "ecc/reed_muller.hpp"
#include "net/frame.hpp"
#include "service/device_registry.hpp"
#include "store/crp_ledger.hpp"
#include "store/records.hpp"
#include "store/recovery.hpp"
#include "store/wal.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace pufatt {
namespace {

namespace fs = std::filesystem;
using Bytes = std::vector<std::uint8_t>;

std::uint64_t fnv1a(const Bytes& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

Bytes file_bytes(const std::string& path) {
  Bytes bytes;
  EXPECT_TRUE(support::read_file(path, bytes)) << path;
  return bytes;
}

template <class T>
Bytes saved(const T& x) {
  support::ByteWriter out;
  x.save(out);
  return out.take();
}

Bytes saved_record(const core::EnrollmentRecord& record) {
  support::ByteWriter out;
  core::save_record(out, record);
  return out.take();
}

/// A small-profile record whose bytes depend on no floating-point
/// arithmetic: enrolled for its shape, then refilled from `seed`.
core::EnrollmentRecord fixed_record(const alupuf::PufDevice& device,
                                    std::uint64_t seed) {
  const auto profile = core::DeviceProfile::small();
  support::Xoshiro256pp rng(seed);
  std::vector<std::uint32_t> firmware(64);
  for (auto& w : firmware) w = static_cast<std::uint32_t>(rng.next());
  auto record = core::enroll(device, profile,
                             core::make_enrolled_image(profile, firmware));
  auto fill = [&](std::vector<double>& v, double lo, double span) {
    for (auto& x : v) x = lo + span * rng.uniform();
  };
  fill(record.model.intrinsic_ps, 10.0, 20.0);
  fill(record.model.wire_ps, 1.0, 2.0);
  fill(record.model.vth_v, 0.30, 0.05);
  fill(record.model.vth_tempco, -0.002, 0.001);
  fill(record.model.rise_factor, 0.9, 0.2);
  fill(record.model.fall_factor, 0.9, 0.2);
  record.profile.base_clock_mhz = 40.0 + rng.uniform();
  record.honest_cycles = 123456789 + (rng.next() & 0xFFFF);
  return record;
}

/// Two devices' records and CRP databases, a registry and a ledger over
/// them, all from fixed seeds.
struct Corpus {
  ecc::ReedMuller1 code{5};
  alupuf::PufDevice dev_a{core::DeviceProfile::small().puf_config, 0xD16E57A,
                          code};
  alupuf::PufDevice dev_b{core::DeviceProfile::small().puf_config, 0xD16E57B,
                          code};
  core::EnrollmentRecord rec_a = fixed_record(dev_a, 0xA11CE);
  core::EnrollmentRecord rec_b = fixed_record(dev_b, 0xB0B);
  core::CrpDatabase db_a;
  core::CrpDatabase db_b;
  service::DeviceRegistry registry;
  store::CrpLedger ledger{nullptr};

  static const Corpus& instance() {
    static const Corpus corpus;
    return corpus;
  }

 private:
  Corpus() {
    support::Xoshiro256pp crp_rng(0xC4D);
    db_a = core::CrpDatabase::collect(dev_a.raw_puf(), 3, crp_rng, 2);
    db_b = core::CrpDatabase::collect(dev_b.raw_puf(), 2, crp_rng, 2);
    support::Xoshiro256pp auth_rng(0xA07);
    db_a.authenticate(dev_a.raw_puf(), auth_rng);
    registry.store("dev-b", rec_b);  // out of order: save() sorts
    registry.store("dev-a", rec_a);
    ledger.enroll("dev-b", db_b);
    ledger.enroll("dev-a", db_a);
  }
};

const net::TraceContext kTraced{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};
const net::JobRequest kJob{"dev-7", 0x1111222233334444ULL,
                           0x5555666677778888ULL, 42};
const net::VerdictReply kVerdict{43, service::JobOutcome::kRejected,
                                 core::SessionStatus::kRetriesExhausted, 3,
                                 1234.5};
const net::BusyReply kBusy{44, 250.25};
const net::ErrorReply kError{45, net::ErrorCode::kShuttingDown};
const net::StatsRequest kStatsRequest{46};
const net::StatsReply kStatsReply{47, "{\"jobs\":12}"};

core::AttestationResponse fixed_response() {
  core::AttestationResponse response;
  for (unsigned i = 0; i < 8; ++i) response.checksum[i] = 0x9E3779B9u * (i + 1);
  for (unsigned i = 0; i < 16; ++i) {
    response.helper_words.push_back(0x3Fu & (i * 7));
  }
  return response;
}

/// The payload of a single encoded net frame.
Bytes payload_of(const Bytes& frame) {
  net::FrameDecoder decoder;
  std::vector<net::FrameDecoder::Frame> out;
  EXPECT_TRUE(decoder.feed(frame, out));
  EXPECT_EQ(out.size(), 1u);
  return out.empty() ? Bytes{} : out[0].payload;
}

struct Pinned {
  const char* name;
  std::size_t size;
  std::uint64_t digest;
};

TEST(Codec, EveryEncodingIsByteIdenticalToItsPinnedDigest) {
  const auto& c = Corpus::instance();
  const std::string dir = ::testing::TempDir() + "pufatt_codec_pinned";
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::vector<std::pair<std::string, Bytes>> encodings;
  core::save_record_file(dir + "/record.bin", c.rec_a);
  encodings.emplace_back("record", file_bytes(dir + "/record.bin"));
  c.registry.save_file(dir + "/registry.bin");
  encodings.emplace_back("registry", file_bytes(dir + "/registry.bin"));
  encodings.emplace_back("crp_database", saved(c.db_a));
  encodings.emplace_back("ledger", saved(c.ledger));
  store::write_snapshot(dir + "/snap", c.registry, c.ledger, 7);
  encodings.emplace_back("snapshot",
                         file_bytes(store::snapshot_path(dir + "/snap")));
  encodings.emplace_back("wal_enroll", store::encode_enroll("dev-a", c.rec_a));
  encodings.emplace_back("wal_evict", store::encode_evict("dev-a"));
  encodings.emplace_back("wal_crp_enroll",
                         store::encode_crp_enroll("dev-a", c.db_a));
  encodings.emplace_back("wal_crp_consume",
                         store::encode_crp_consume("dev-a", 0x1234567890ULL));
  {
    store::WalWriter wal(dir + "/wal");
    wal.append(store::kEnroll, store::encode_enroll("dev-a", c.rec_a));
    wal.append(store::kEvict, store::encode_evict("dev-a"));
    wal.append(store::kCrpEnroll, store::encode_crp_enroll("dev-a", c.db_a));
    wal.append(store::kCrpConsume, store::encode_crp_consume("dev-a", 2));
    wal.append(store::kCheckpoint, "");
  }
  encodings.emplace_back(
      "wal_segment", file_bytes(dir + "/wal/" + store::wal_segment_file(1)));
  encodings.emplace_back("net_job_request", net::encode_job_request(kJob));
  encodings.emplace_back("net_job_request_traced",
                         net::encode_job_request(kJob, kTraced));
  encodings.emplace_back("net_verdict_reply",
                         net::encode_verdict_reply(kVerdict));
  encodings.emplace_back("net_verdict_reply_traced",
                         net::encode_verdict_reply(kVerdict, kTraced));
  encodings.emplace_back("net_busy_reply", net::encode_busy_reply(kBusy));
  encodings.emplace_back("net_busy_reply_traced",
                         net::encode_busy_reply(kBusy, kTraced));
  encodings.emplace_back("net_error_reply", net::encode_error_reply(kError));
  encodings.emplace_back("net_stats_request",
                         net::encode_stats_request(kStatsRequest));
  encodings.emplace_back("net_stats_reply",
                         net::encode_stats_reply(kStatsReply));
  encodings.emplace_back("core_request",
                         core::serialize_request({0x0123456789ABCDEFULL}));
  encodings.emplace_back("core_response",
                         core::serialize_response(fixed_response()));

  // Sizes and FNV-1a digests of the same encodings, taken from the
  // stream-based codecs these formats had before support/bytes.
  const std::vector<Pinned> pinned = {
      {"record", 22900, 0x0d691948f0e9c753ULL},
      {"registry", 45842, 0xef2ef9b96e3662d8ULL},
      {"crp_database", 172, 0x17d7a3a0f2cc56f6ULL},
      {"ledger", 322, 0xde7ad794d2b53b20ULL},
      {"snapshot", 46184, 0xdcf6382e56b77f08ULL},
      {"wal_enroll", 22909, 0x6b5fea0436558e53ULL},
      {"wal_evict", 9, 0xb430d28c68ff9a83ULL},
      {"wal_crp_enroll", 181, 0x8f62a96951403df6ULL},
      {"wal_crp_consume", 17, 0x95dbafe9d97eea23ULL},
      {"wal_segment", 23212, 0x29a54dbe6339e17dULL},
      {"net_job_request", 49, 0x86bc501e357efd06ULL},
      {"net_job_request_traced", 65, 0x68fc1850f0964dc3ULL},
      {"net_verdict_reply", 44, 0x8551566f9dbcf238ULL},
      {"net_verdict_reply_traced", 60, 0x1e31bed794887146ULL},
      {"net_busy_reply", 32, 0xe951e2636b7795e7ULL},
      {"net_busy_reply_traced", 48, 0xa74fa9da1b2aa50aULL},
      {"net_error_reply", 28, 0x828b90328e4941a0ULL},
      {"net_stats_request", 24, 0x06d7d7616cdafc32ULL},
      {"net_stats_reply", 39, 0x62b70bfde1307dfbULL},
      {"core_request", 16, 0x3ecc851e81989226ULL},
      {"core_response", 108, 0x0e208a65881844aaULL},
  };
  ASSERT_EQ(encodings.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(encodings[i].first, pinned[i].name);
    EXPECT_EQ(encodings[i].second.size(), pinned[i].size) << pinned[i].name;
    EXPECT_EQ(fnv1a(encodings[i].second), pinned[i].digest) << pinned[i].name;
  }
  // The in-memory snapshot encoder writes exactly the file's bytes.
  EXPECT_EQ(store::encode_snapshot(c.registry, c.ledger, 7),
            encodings[4].second);
  fs::remove_all(dir);
}

/// `decode` accepts `valid` and refuses, with Error, each strict prefix
/// and `valid` plus one byte.
template <class Error>
void expect_refuses_every_cut(const char* name, const Bytes& valid,
                              const std::function<void(const Bytes&)>& decode) {
  SCOPED_TRACE(name);
  EXPECT_NO_THROW(decode(valid));
  for (std::size_t n = 0; n < valid.size(); ++n) {
    const Bytes prefix(valid.begin(),
                       valid.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW(decode(prefix), Error) << "prefix of " << n << " bytes";
  }
  Bytes longer = valid;
  longer.push_back(0);
  EXPECT_THROW(decode(longer), Error) << "one-byte extension";
}

template <class Error, class Decode>
std::function<void(const Bytes&)> whole(Decode decode) {
  return [decode](const Bytes& bytes) {
    support::ByteReader<Error> in(bytes);
    decode(in);
    in.expect_end("trailing bytes");
  };
}

TEST(Codec, CoreDecodersRefuseEveryPrefixAndExtension) {
  const auto& c = Corpus::instance();
  using core::SerializationError;
  using Reader = support::ByteReader<SerializationError>;
  expect_refuses_every_cut<SerializationError>(
      "record", saved_record(c.rec_a),
      whole<SerializationError>([](Reader& in) { core::load_record(in); }));
  expect_refuses_every_cut<SerializationError>(
      "crp_database", saved(c.db_a),
      whole<SerializationError>(
          [](Reader& in) { core::CrpDatabase::load(in); }));
  expect_refuses_every_cut<SerializationError>(
      "registry", saved(c.registry),
      whole<SerializationError>(
          [](Reader& in) { service::DeviceRegistry::load_registry(in); }));
  expect_refuses_every_cut<SerializationError>(
      "core_request", core::serialize_request({0x0123456789ABCDEFULL}),
      [](const Bytes& b) { core::deserialize_request(b); });
  expect_refuses_every_cut<SerializationError>(
      "core_response", core::serialize_response(fixed_response()),
      [](const Bytes& b) { core::deserialize_response(b); });
}

TEST(Codec, StoreDecodersRefuseEveryPrefixAndExtension) {
  const auto& c = Corpus::instance();
  using store::StoreError;
  expect_refuses_every_cut<StoreError>(
      "ledger", saved(c.ledger),
      whole<StoreError>([](support::ByteReader<StoreError>& in) {
        store::CrpLedger ledger(nullptr);
        store::CrpLedger::load_into(in, ledger);
      }));
  expect_refuses_every_cut<StoreError>(
      "snapshot", store::encode_snapshot(c.registry, c.ledger, 7),
      [](const Bytes& b) {
        service::DeviceRegistry registry;
        store::CrpLedger ledger(nullptr);
        store::decode_snapshot(b, registry, ledger);
      });
  auto payload = [](std::uint32_t type, auto decode) {
    return [type, decode](const Bytes& b) {
      store::WalRecord record;
      record.type = type;
      record.payload = b;
      decode(record);
    };
  };
  expect_refuses_every_cut<StoreError>(
      "wal_enroll", store::encode_enroll("dev-a", c.rec_a),
      payload(store::kEnroll, store::decode_enroll));
  expect_refuses_every_cut<StoreError>(
      "wal_evict", store::encode_evict("dev-a"),
      payload(store::kEvict, store::decode_evict));
  expect_refuses_every_cut<StoreError>(
      "wal_crp_enroll", store::encode_crp_enroll("dev-a", c.db_a),
      payload(store::kCrpEnroll, store::decode_crp_enroll));
  expect_refuses_every_cut<StoreError>(
      "wal_crp_consume", store::encode_crp_consume("dev-a", 5),
      payload(store::kCrpConsume, store::decode_crp_consume));
}

TEST(Codec, FileDecodersRefuseTrailingBytes) {
  const auto& c = Corpus::instance();
  const std::string dir = ::testing::TempDir() + "pufatt_codec_files";
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto append_byte = [](const std::string& path) {
    auto bytes = file_bytes(path);
    bytes.push_back(0);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  };
  const std::string record = dir + "/record.bin";
  core::save_record_file(record, c.rec_a);
  EXPECT_NO_THROW(core::load_record_file(record));
  append_byte(record);
  EXPECT_THROW(core::load_record_file(record), core::SerializationError);

  const std::string registry = dir + "/registry.bin";
  c.registry.save_file(registry);
  EXPECT_EQ(service::DeviceRegistry::load_registry_file(registry).size(), 2u);
  append_byte(registry);
  EXPECT_THROW(service::DeviceRegistry::load_registry_file(registry),
               core::SerializationError);

  store::write_snapshot(dir, c.registry, c.ledger, 0);
  EXPECT_EQ(store::recover(dir).stats.devices, 2u);
  append_byte(store::snapshot_path(dir));
  EXPECT_THROW(store::recover(dir), store::StoreError);
  fs::remove_all(dir);
}

TEST(Codec, NetDecodersRefuseEveryPrefixAndExtension) {
  using core::SerializationError;
  auto check = [](const char* name, const Bytes& frame, auto decode) {
    expect_refuses_every_cut<SerializationError>(
        name, payload_of(frame), [decode](const Bytes& b) { decode(b); });
    // A stream decoder waits on a strict prefix of a frame: no frame, and
    // not poisoned.
    for (std::size_t n = 0; n < frame.size(); ++n) {
      net::FrameDecoder decoder;
      std::vector<net::FrameDecoder::Frame> out;
      EXPECT_TRUE(decoder.feed(frame.data(), n, out)) << name << " " << n;
      EXPECT_TRUE(out.empty()) << name << " " << n;
    }
  };
  check("job_request", net::encode_job_request(kJob), net::decode_job_request);
  check("job_request_traced", net::encode_job_request(kJob, kTraced),
        net::decode_job_request);
  check("verdict_reply", net::encode_verdict_reply(kVerdict),
        net::decode_verdict_reply);
  check("busy_reply", net::encode_busy_reply(kBusy), net::decode_busy_reply);
  check("error_reply", net::encode_error_reply(kError),
        net::decode_error_reply);
  check("stats_request", net::encode_stats_request(kStatsRequest),
        net::decode_stats_request);
  check("stats_reply", net::encode_stats_reply(kStatsReply),
        net::decode_stats_reply);
}

}  // namespace
}  // namespace pufatt

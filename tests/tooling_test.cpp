// Tests for the deployment tooling: the PR32 disassembler (auditability of
// attested images) and enrollment-record serialization (the verifier's
// device database).
#include <gtest/gtest.h>

#include <sstream>

#include "core/protocol.hpp"
#include "core/serialize.hpp"
#include "cpu/assembler.hpp"
#include "cpu/isa.hpp"
#include "cpu/disassembler.hpp"
#include "ecc/reed_muller.hpp"
#include "swat/program.hpp"

namespace pufatt {
namespace {

// ------------------------------------------------------------ disassembler

TEST(Disassembler, RendersEveryFormat) {
  using cpu::Instruction;
  using cpu::Opcode;
  EXPECT_EQ(cpu::disassemble(cpu::encode({Opcode::kAdd, 1, 2, 3, 0})),
            "add r1, r2, r3");
  EXPECT_EQ(cpu::disassemble(cpu::encode({Opcode::kAddi, 4, 5, 0, -7})),
            "addi r4, r5, -7");
  EXPECT_EQ(cpu::disassemble(cpu::encode({Opcode::kLui, 6, 0, 0, 0x12})),
            "lui r6, 18");
  EXPECT_EQ(cpu::disassemble(cpu::encode({Opcode::kLw, 7, 8, 0, 12})),
            "lw r7, 12(r8)");
  EXPECT_EQ(cpu::disassemble(cpu::encode({Opcode::kSw, 0, 9, 10, -4})),
            "sw r10, -4(r9)");
  EXPECT_EQ(cpu::disassemble(cpu::encode({Opcode::kBne, 0, 1, 2, -3})),
            "bne r1, r2, -3");
  EXPECT_EQ(cpu::disassemble(cpu::encode({Opcode::kJal, 15, 0, 0, 100})),
            "jal r15, 100");
  EXPECT_EQ(cpu::disassemble(cpu::encode({Opcode::kHalt, 0, 0, 0, 0})), "halt");
  EXPECT_EQ(cpu::disassemble(cpu::encode({Opcode::kPstart, 0, 0, 0, 0})),
            "pstart");
  EXPECT_EQ(cpu::disassemble(cpu::encode({Opcode::kPend, 5, 0, 0, 0})),
            "pend r5");
}

TEST(Disassembler, UnknownWordsBecomeDataDirectives) {
  EXPECT_EQ(cpu::disassemble(0xFF000000u), ".word 0xff000000");
  EXPECT_EQ(cpu::disassemble(0u), ".word 0x0");
}

TEST(Disassembler, RoundTripsTheGeneratedSwatProgram) {
  // disassemble(assemble(P)) must re-assemble to the identical words — the
  // property that makes attested images auditable.
  swat::SwatParams params;
  params.rounds = 256;
  params.puf_interval = 64;
  params.attest_words = 1024;
  const auto layout = swat::SwatLayout::standard(params);
  const auto original =
      cpu::assemble(swat::generate_swat_source(params, layout)).words;

  std::ostringstream source;
  for (const auto word : original) {
    source << cpu::disassemble(word) << "\n";
  }
  const auto rebuilt = cpu::assemble(source.str()).words;
  ASSERT_EQ(rebuilt.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(rebuilt[i], original[i]) << "word " << i;
  }
}

TEST(Disassembler, ProgramListingHasAddresses) {
  const auto listing = cpu::disassemble_program({
      cpu::encode({cpu::Opcode::kAddi, 1, 0, 0, 5}),
      cpu::encode({cpu::Opcode::kHalt, 0, 0, 0, 0}),
  });
  EXPECT_NE(listing.find("addi r1, r0, 5"), std::string::npos);
  EXPECT_NE(listing.find("; 1"), std::string::npos);
}

// ------------------------------------------------------------ serialization

class SerializeFixture : public ::testing::Test {
 public:
  static const core::EnrollmentRecord& record() {
    static const core::EnrollmentRecord instance = [] {
      const auto profile = [] {
        auto p = core::DeviceProfile::standard();
        p.swat.rounds = 256;
        p.swat.attest_words = 1024;
        p.layout = swat::SwatLayout::standard(p.swat);
        return p;
      }();
      static const ecc::ReedMuller1 code(5);
      const alupuf::PufDevice device(profile.puf_config, 321, code);
      return core::enroll(device, profile,
                          core::make_enrolled_image(
                              profile, std::vector<std::uint32_t>(500, 9)));
    }();
    return instance;
  }
};

/// A record's bytes, and the record they decode back to.
std::vector<std::uint8_t> record_bytes(const core::EnrollmentRecord& record) {
  support::ByteWriter out;
  core::save_record(out, record);
  return out.take();
}

core::EnrollmentRecord load_bytes(const std::vector<std::uint8_t>& bytes) {
  support::ByteReader<core::SerializationError> in(bytes);
  return core::load_record(in);
}

TEST_F(SerializeFixture, RoundTripPreservesEverything) {
  const auto loaded = load_bytes(record_bytes(record()));

  EXPECT_EQ(loaded.honest_cycles, record().honest_cycles);
  EXPECT_EQ(loaded.enrolled_image, record().enrolled_image);
  EXPECT_EQ(loaded.profile.swat.rounds, record().profile.swat.rounds);
  EXPECT_DOUBLE_EQ(loaded.profile.base_clock_mhz,
                   record().profile.base_clock_mhz);
  EXPECT_EQ(loaded.model.intrinsic_ps, record().model.intrinsic_ps);
  EXPECT_EQ(loaded.model.vth_v, record().model.vth_v);
  EXPECT_EQ(loaded.model.rise_factor, record().model.rise_factor);
  EXPECT_DOUBLE_EQ(loaded.model.tech.design_asym_sigma,
                   record().model.tech.design_asym_sigma);
}

TEST_F(SerializeFixture, LoadedRecordVerifiesLiveDevice) {
  // The real contract: a verifier rebuilt from the serialized record must
  // still accept the physical device.
  const auto loaded = load_bytes(record_bytes(record()));

  static const ecc::ReedMuller1 code(5);
  const alupuf::PufDevice device(loaded.profile.puf_config, 321, code);
  const core::Verifier verifier(loaded, code);
  support::Xoshiro256pp rng(5);
  core::CpuProver prover(device, loaded, core::CpuProver::Variant::kHonest, 6);
  const auto request = verifier.make_request(rng);
  const auto outcome = prover.respond(request);
  const core::Channel channel;
  const auto result = verifier.verify(
      request, outcome.response,
      outcome.compute_us + channel.round_trip_us(8, outcome.response.wire_bytes()));
  EXPECT_TRUE(result.accepted()) << core::to_string(result.status);
}

TEST_F(SerializeFixture, FileRoundTrip) {
  const std::string path = "/tmp/pufatt_record_test.bin";
  core::save_record_file(path, record());
  const auto loaded = core::load_record_file(path);
  EXPECT_EQ(loaded.enrolled_image, record().enrolled_image);
}

TEST_F(SerializeFixture, RejectsOversizedImageLength) {
  // The image length is bounded (1 << 22 words) before anything is
  // allocated: one past the bound must be refused as too large, not read
  // as a 16 MiB vector that then runs out of input.
  auto bytes = record_bytes(record());
  // The record ends with the image (u32 length + words) and a u64.
  const std::size_t words = record().enrolled_image.size();
  const std::size_t at = bytes.size() - 8 - 4 * words - 4;
  ASSERT_EQ(support::load_le32(bytes.data() + at), words);
  support::store_le32(bytes.data() + at, (1u << 22) + 1);
  try {
    load_bytes(bytes);
    FAIL() << "an oversized image length was accepted";
  } catch (const core::SerializationError& e) {
    EXPECT_STREQ(e.what(), "vector too large");
  }
}

TEST_F(SerializeFixture, RejectsDelayTablesOfDisagreeingSizes) {
  // Each of H's arrays has one entry per gate; one array a gate short is
  // refused even though each array's own length prefix is consistent.
  for (auto member :
       {&variation::DelayTable::wire_ps, &variation::DelayTable::vth_v,
        &variation::DelayTable::vth_tempco,
        &variation::DelayTable::rise_factor,
        &variation::DelayTable::fall_factor}) {
    auto broken = record();
    (broken.model.*member).pop_back();
    try {
      load_bytes(record_bytes(broken));
      FAIL() << "delay table arrays of different sizes were accepted";
    } catch (const core::SerializationError& e) {
      EXPECT_STREQ(e.what(), "delay table arrays have inconsistent sizes");
    }
  }
}

TEST_F(SerializeFixture, RejectsImageNotMatchingTheAttestedRegion) {
  auto broken = record();
  broken.enrolled_image.pop_back();
  try {
    load_bytes(record_bytes(broken));
    FAIL() << "an image shorter than the attested region was accepted";
  } catch (const core::SerializationError& e) {
    EXPECT_STREQ(e.what(), "image size does not match the attested region");
  }
}

TEST(Serialize, RejectsBadMagic) {
  EXPECT_THROW(load_bytes({'n', 'o', 'p', 'e'}), core::SerializationError);
}

TEST(Serialize, RejectsTruncatedInput) {
  auto bytes = record_bytes(SerializeFixture::record());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(load_bytes(bytes), core::SerializationError);
}

TEST(Serialize, RejectsWrongVersion) {
  auto bytes = record_bytes(SerializeFixture::record());
  bytes[4] = 0xEE;  // clobber the version field
  EXPECT_THROW(load_bytes(bytes), core::SerializationError);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(core::load_record_file("/nonexistent/path/record.bin"),
               core::SerializationError);
}

}  // namespace
}  // namespace pufatt

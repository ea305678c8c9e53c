#include "core/enrollment.hpp"

#include <cmath>
#include <stdexcept>

#include "cpu/assembler.hpp"

namespace pufatt::core {

DeviceProfile DeviceProfile::standard() {
  DeviceProfile profile;
  profile.puf_config.width = 32;
  profile.swat.rounds = 2048;
  profile.swat.puf_interval = 64;
  profile.swat.attest_words = 4096;
  profile.layout = swat::SwatLayout::standard(profile.swat);
  return profile;
}

DeviceProfile DeviceProfile::small() {
  auto profile = standard();
  profile.swat.rounds = 512;
  profile.swat.puf_interval = 64;
  profile.swat.attest_words = 1024;
  profile.layout = swat::SwatLayout::standard(profile.swat);
  return profile;
}

std::vector<std::uint32_t> make_enrolled_image(
    const DeviceProfile& profile, const std::vector<std::uint32_t>& payload) {
  const auto program =
      cpu::assemble(swat::generate_swat_source(profile.swat, profile.layout))
          .words;
  if (program.size() > profile.swat.attest_words) {
    throw std::invalid_argument("SWAT program exceeds the attested region");
  }
  std::vector<std::uint32_t> image(profile.swat.attest_words, 0);
  for (std::size_t i = 0; i < program.size(); ++i) image[i] = program[i];
  const std::size_t payload_space = image.size() - program.size();
  for (std::size_t i = 0; i < payload.size() && i < payload_space; ++i) {
    image[program.size() + i] = payload[i];
  }
  return image;
}

DeviceSnapshot::DeviceSnapshot(EnrollmentRecord record)
    : EnrollmentRecord(std::move(record)),
      emulator_(profile.puf_config.width, model, profile.puf_config.layout) {
  if (profile.puf_config.width != 32) {
    throw std::invalid_argument(
        "DeviceSnapshot: PUF width must be 32, the protocol's (64-bit "
        "challenges, 32-bit responses)");
  }
  swat::validate(profile.swat);
  const double clock_mhz = profile.base_clock_mhz;
  if (!(std::isfinite(clock_mhz) && clock_mhz > 0.0)) {
    throw std::invalid_argument(
        "DeviceSnapshot: base clock must be finite and positive");
  }
}

EnrollmentRecord enroll(const alupuf::PufDevice& device,
                        const DeviceProfile& profile,
                        std::vector<std::uint32_t> enrolled_image) {
  if (enrolled_image.size() != profile.swat.attest_words) {
    throw std::invalid_argument("enroll: image size != attested region");
  }
  EnrollmentRecord record;
  record.profile = profile;
  // Tight per-die clock: T_cycle = (T_ALU + T_set) * (1 + margin).  The
  // manufacturer measures this chip's worst-case carry-chain settle; any
  // overclock that would hide checksum overhead then violates the capture
  // deadline and corrupts PUF responses.
  const double t_alu_ps =
      device.raw_puf().max_settle_ps(variation::Environment::nominal());
  const double cycle_ps = (t_alu_ps + profile.register_setup_ps) *
                          (1.0 + profile.clock_margin);
  record.profile.base_clock_mhz = 1e6 / cycle_ps;
  record.model = device.export_model();
  record.enrolled_image = std::move(enrolled_image);
  record.honest_cycles = swat::honest_cycle_estimate(profile.swat);
  return record;
}

}  // namespace pufatt::core

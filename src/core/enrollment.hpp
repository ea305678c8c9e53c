// Manufacturer-side enrollment.
//
// At manufacturing time the trusted party (a) extracts the gate-level delay
// table H through the protected test interface (paper Section 2: "only
// accessible by a trusted entity ... permanently disabled by fuses"),
// (b) fixes the software image the device ships with, and (c) measures the
// honest cycle count the verifier will enforce as the time bound.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "alupuf/pipeline.hpp"
#include "swat/checksum.hpp"
#include "swat/program.hpp"
#include "variation/chip.hpp"

namespace pufatt::core {

/// Everything that defines one deployed device model (same for a whole
/// product line; the per-chip part is the delay table).
struct DeviceProfile {
  alupuf::AluPufConfig puf_config;  ///< width must be 32 for the protocol
  swat::SwatParams swat;
  swat::SwatLayout layout;
  /// Filled in per chip by enroll(): the paper's overclocking defence
  /// requires T_ALU + T_set < T_base with *minimal* headroom, so the
  /// manufacturer measures the die's worst-case ALU settle time and sets
  /// the clock just above it ("it is crucial to carefully set the clock
  /// frequency used for attestation").
  double base_clock_mhz = 860.0;
  /// Relative clock-period headroom above T_ALU + T_set (covers evaluation
  /// jitter; any overclock beyond it corrupts PUF responses).
  double clock_margin = 0.06;
  double register_setup_ps = 20.0;

  static DeviceProfile standard();
  /// standard() shrunk to 512 rounds over 1024 words: the profile the
  /// served fleet, the sensor network and most tests enroll.
  static DeviceProfile small();
};

/// The verifier's per-device knowledge.
struct EnrollmentRecord {
  DeviceProfile profile;
  variation::DelayTable model;              ///< emulation model H
  std::vector<std::uint32_t> enrolled_image;  ///< attested memory content
  std::uint64_t honest_cycles = 0;          ///< honest SWAT cycle count
};

/// One enrolled device as a verifier serves it: the record plus the
/// nominal emulation model derived from its H (the delays and the
/// shared-delay engine plan PUF.Emulate() runs on).  Built once, when the
/// record enters a service::DeviceRegistry, and immutable after, so every
/// verifier of the device shares one model and building a verifier
/// derives nothing.  It derives publicly from the record, so a reader of
/// registry records (`snapshot->model`, a shared_ptr<const
/// EnrollmentRecord> taken from a snapshot) sees the record unchanged.
class DeviceSnapshot : public EnrollmentRecord {
 public:
  /// Refuses, with std::invalid_argument, a record no verifier could
  /// serve: a delay table that does not match the PUF circuit, a PUF
  /// width other than the protocol's 32 (DevicePufPort's), SWAT
  /// parameters swat::validate rejects, or a base clock that is not
  /// finite and positive (the time bound delta would be infinite).
  explicit DeviceSnapshot(EnrollmentRecord record);

  /// The nominal model every verifier built from this snapshot emulates
  /// with.
  const alupuf::AluPufEmulator& emulator() const { return emulator_; }

 private:
  alupuf::AluPufEmulator emulator_;
};

/// Builds the enrolled memory image: the honest SWAT program at address 0
/// followed by the device's data/firmware payload, padded/truncated to the
/// attested size.  Throws if the program does not fit.
std::vector<std::uint32_t> make_enrolled_image(
    const DeviceProfile& profile, const std::vector<std::uint32_t>& payload);

/// Performs enrollment for one manufactured device.
EnrollmentRecord enroll(const alupuf::PufDevice& device,
                        const DeviceProfile& profile,
                        std::vector<std::uint32_t> enrolled_image);

}  // namespace pufatt::core

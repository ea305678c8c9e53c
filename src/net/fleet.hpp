// Deterministic simulated fleet shared by the server CLI, the network
// tests and bench/net_throughput.
//
// A networked attestation service needs real enrolled devices behind it.
// SimFleet enrolls `count` PufDevices from a fixed seed schedule (the same
// one serve-demo and the service tests use: chip seeds 0xD1CE0000+d, a
// 600-word firmware image from a seeded RNG), keeps both the registry side
// (EnrollmentRecord) and the prover side (the PufDevice itself), and hands
// out the responder factory the AttestationServer plugs into its job
// dispatch.
//
// Determinism is the point: a verdict is a pure function of (record,
// responder, channel_seed, rng_seed), and every SimFleet(count, seed)
// builds bit-identical devices, so a load generator on one side of a
// socket and an in-process VerifierPool on the other can run the *same*
// job list and must produce the same verdict per tag — that parity check
// is how the bench proves the network layer never corrupts a session.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/enrollment.hpp"
#include "core/session.hpp"
#include "ecc/reed_muller.hpp"
#include "service/device_registry.hpp"

namespace pufatt::net {

class SimFleet {
 public:
  /// Enrolls `count` devices.  `seed` varies the whole fleet (chip seeds,
  /// firmware image) while keeping it reproducible.
  explicit SimFleet(std::size_t count, std::uint64_t seed = 0x5E47EDE40);

  std::size_t size() const { return devices_.size(); }
  const ecc::ReedMuller1& code() const { return code_; }
  const service::DeviceRegistry& registry() const { return registry_; }

  /// "dev-N"; out-of-range indices still format (useful for probing the
  /// unknown-device path).
  static std::string device_id(std::size_t index) {
    return "dev-" + std::to_string(index);
  }

  /// Index for a fleet-generated id; size() when the id is not ours.
  std::size_t index_of(const std::string& device_id) const;

  /// Honest responder for device `index`, deterministic in `rng_seed`.
  /// Each owns its prover; all responders of a device share its read-only
  /// PufDevice, so any number may run at once on the pool's workers.
  core::Responder responder(std::size_t index, std::uint64_t rng_seed) const;

  /// Responder for a wire job: resolves the device id and seeds the
  /// simulated prover from the job's rng_seed (xor-folded exactly like
  /// serve-demo, so wire jobs match in-process baselines).  Returns an
  /// empty function for ids outside the fleet.
  core::Responder responder_for(const std::string& device_id,
                                std::uint64_t rng_seed) const;

 private:
  struct Device {
    std::unique_ptr<alupuf::PufDevice> device;
    core::EnrollmentRecord record;
  };

  ecc::ReedMuller1 code_;
  core::DeviceProfile profile_;
  std::vector<Device> devices_;
  service::DeviceRegistry registry_;
};

}  // namespace pufatt::net

#include "net/fleet.hpp"

#include "core/protocol.hpp"
#include "support/rng.hpp"

namespace pufatt::net {

SimFleet::SimFleet(std::size_t count, std::uint64_t seed)
    : code_(5), profile_(core::DeviceProfile::small()) {
  support::Xoshiro256pp rng(seed);
  std::vector<std::uint32_t> firmware(600);
  for (auto& word : firmware) word = static_cast<std::uint32_t>(rng.next());
  const auto image = core::make_enrolled_image(profile_, firmware);

  devices_.resize(count);
  for (std::size_t d = 0; d < count; ++d) {
    devices_[d].device = std::make_unique<alupuf::PufDevice>(
        profile_.puf_config, 0xD1CE0000 + d + (seed << 8), code_);
    devices_[d].record = core::enroll(*devices_[d].device, profile_, image);
    registry_.store(device_id(d), devices_[d].record);
  }
}

std::size_t SimFleet::index_of(const std::string& device_id) const {
  if (device_id.rfind("dev-", 0) != 0) return devices_.size();
  const std::string num = device_id.substr(4);
  if (num.empty() || num.find_first_not_of("0123456789") != std::string::npos) {
    return devices_.size();
  }
  const unsigned long long index = std::stoull(num);
  return index < devices_.size() ? static_cast<std::size_t>(index)
                                 : devices_.size();
}

core::Responder SimFleet::responder(std::size_t index,
                                    std::uint64_t rng_seed) const {
  auto prover = std::make_shared<core::CpuProver>(
      *devices_[index].device, devices_[index].record,
      core::CpuProver::Variant::kHonest, rng_seed);
  return [prover](const core::AttestationRequest& request) {
    auto outcome = prover->respond(request);
    return core::ProverReply{std::move(outcome.response), outcome.compute_us};
  };
}

core::Responder SimFleet::responder_for(const std::string& device_id,
                                        std::uint64_t rng_seed) const {
  const std::size_t index = index_of(device_id);
  if (index >= devices_.size()) return {};
  return responder(index, rng_seed ^ 0xF00D);
}

}  // namespace pufatt::net

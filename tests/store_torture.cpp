// Seeded kill-and-recover torture loop (tools/ci.sh runs this on every
// build tree, ctest label "torture").
//
// Each iteration runs a realistic store workload — enroll, CRP
// provisioning, consumption, compaction, more consumption — with one
// deterministic fault injected somewhere random in the middle:
//
//   iter % 3 == 0   simulated kill at a random byte (crash_after_bytes)
//   iter % 3 == 1   short write at a random fwrite ordinal
//   iter % 3 == 2   fsync EIO at a random fsync ordinal
//
// After the fault, the directory on disk must behave like any crash
// image: recovery succeeds (or the in-process store failed closed with
// StoreError — never silent corruption), VerifierStore::open holds state
// byte-identical to a read-only recovery of the same directory, the
// reopened store still serves a write and a CRP authentication, and a
// second read-only recovery shows that write.
//
//   STORE_TORTURE_ITERS   iteration count        (default 24)
//   STORE_TORTURE_SEED    RNG seed               (default 0x70A7)
//
// Exit code 0 iff every iteration holds the property.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/crp_database.hpp"
#include "core/distributed.hpp"
#include "core/enrollment.hpp"
#include "ecc/reed_muller.hpp"
#include "store/recovery.hpp"
#include "store/verifier_store.hpp"
#include "support/faulty_file.hpp"
#include "support/rng.hpp"

using namespace pufatt;
namespace fs = std::filesystem;

namespace {

const ecc::ReedMuller1& code() {
  static const ecc::ReedMuller1 instance(5);
  return instance;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

struct Fleet {
  struct Device {
    std::string id;
    std::unique_ptr<alupuf::PufDevice> device;
    core::EnrollmentRecord record;
  };
  std::vector<Device> devices;

  explicit Fleet(std::size_t count) {
    const auto profile = core::DeviceProfile::small();
    support::Xoshiro256pp rng(0x70A7F1EE7);
    std::vector<std::uint32_t> firmware(600);
    for (auto& word : firmware) word = static_cast<std::uint32_t>(rng.next());
    const auto image = core::make_enrolled_image(profile, firmware);
    devices.resize(count);
    for (std::size_t d = 0; d < count; ++d) {
      devices[d].id = "torture-" + std::to_string(d);
      devices[d].device = std::make_unique<alupuf::PufDevice>(
          profile.puf_config, 0x707 + d, code());
      devices[d].record = core::enroll(*devices[d].device, profile, image);
    }
  }

  core::CrpDatabase collect(std::size_t index, std::size_t entries,
                            std::uint64_t seed) const {
    support::Xoshiro256pp rng(seed);
    return core::CrpDatabase::collect(devices[index].device->raw_puf(),
                                      entries, rng);
  }
};

std::string scratch_dir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("pufatt_torture_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

/// The append workload under torture.  Deterministic byte-for-byte given
/// a fresh directory, so a kill point drawn from the probe run's byte
/// budget lands anywhere in a real execution.  Throws StoreError when an
/// injected fault makes the store fail closed — the caller treats that
/// the same as a kill.
void workload(const Fleet& fleet, const std::string& dir) {
  store::WalOptions options;
  options.segment_bytes = 1024;  // rotate several times
  options.sync_every = 2;
  auto db = store::VerifierStore::open(dir, options);
  for (std::size_t d = 0; d < fleet.devices.size(); ++d) {
    db->enroll(fleet.devices[d].id, fleet.devices[d].record);
    db->enroll_crps(fleet.devices[d].id, fleet.collect(d, 4, 0x7C01 + d));
  }
  support::Xoshiro256pp rng(0x7C11);
  for (int k = 0; k < 3; ++k) {
    const std::size_t d = static_cast<std::size_t>(k) % fleet.devices.size();
    (void)db->authenticate_crp(fleet.devices[d].id,
                               fleet.devices[d].device->raw_puf(), rng);
  }
  db->compact();
  for (int k = 0; k < 3; ++k) {
    const std::size_t d = static_cast<std::size_t>(k) % fleet.devices.size();
    (void)db->authenticate_crp(fleet.devices[d].id,
                               fleet.devices[d].device->raw_puf(), rng);
  }
  db->sync();
}

using StateBytes =
    std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>;

StateBytes serialize_state(const service::DeviceRegistry& registry,
                           const store::CrpLedger& ledger) {
  support::ByteWriter reg;
  registry.save(reg);
  support::ByteWriter led;
  ledger.save(led);
  return {reg.take(), led.take()};
}

/// Read-only recovery of `dir`: nothing on disk is touched.
StateBytes serialize_recovered(const std::string& dir) {
  const auto state = store::recover(dir);
  return serialize_state(state.registry, *state.ledger);
}

}  // namespace

int main() {
  const std::uint64_t iters = env_u64("STORE_TORTURE_ITERS", 24);
  const std::uint64_t seed = env_u64("STORE_TORTURE_SEED", 0x70A7);
  std::printf("=== store torture: %llu iterations, seed 0x%llx ===\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(seed));

  const Fleet fleet(3);

  // Probe run: learn the workload's byte budget so kill points span the
  // whole execution, the compaction window included.
  std::uint64_t total_bytes = 0;
  {
    const std::string dir = scratch_dir("probe");
    support::FaultPlan plan;
    plan.crash_after_bytes = ~std::uint64_t{0};  // never fires: just counts
    support::ScopedFaultPlan guard(plan);
    workload(fleet, dir);
    total_bytes = support::FaultyFile::instance().bytes_written();
    fs::remove_all(dir);
  }
  if (total_bytes < 1024) {
    std::printf("FAIL: probe run wrote only %llu bytes\n",
                static_cast<unsigned long long>(total_bytes));
    return 1;
  }
  std::printf("workload byte budget: %llu\n",
              static_cast<unsigned long long>(total_bytes));

  support::Xoshiro256pp rng(seed);
  std::size_t failed = 0;
  std::size_t failed_closed = 0;
  for (std::uint64_t iter = 0; iter < iters; ++iter) {
    const std::string primary =
        scratch_dir("primary_" + std::to_string(iter));

    support::FaultPlan plan;
    const char* arm = "";
    switch (iter % 3) {
      case 0:
        arm = "kill";
        plan.crash_after_bytes = 1 + rng.next() % total_bytes;
        break;
      case 1:
        arm = "short-write";
        plan.short_write_at = 1 + rng.next() % 40;
        plan.short_write_keep = rng.next() % 16;
        break;
      case 2:
        arm = "fsync-eio";
        plan.fsync_error_at = 1 + rng.next() % 12;
        break;
    }

    bool store_failed_closed = false;
    {
      support::ScopedFaultPlan guard(plan);
      try {
        workload(fleet, primary);
      } catch (const store::StoreError&) {
        store_failed_closed = true;  // fail closed is a correct outcome
      }
    }
    if (store_failed_closed) ++failed_closed;

    bool ok = true;
    try {
      // Whatever the fault left behind, the store that reopens it must
      // hold exactly the state a read-only recovery reconstructs.
      const auto recovered = serialize_recovered(primary);
      auto db = store::VerifierStore::open(primary);
      if (serialize_state(db->registry(), db->crp_ledger()) != recovered) {
        std::printf("FAIL iter %llu (%s): reopened store diverged from "
                    "read-only recovery\n",
                    static_cast<unsigned long long>(iter), arm);
        ok = false;
      }

      // The reopened store still serves: a write and an authentication.
      db->enroll_crps(fleet.devices[0].id, fleet.collect(0, 2, 0x9E11 + iter));
      support::Xoshiro256pp auth_rng(0x9E22 + iter);
      const auto result = db->authenticate_crp(
          fleet.devices[0].id, fleet.devices[0].device->raw_puf(), auth_rng);
      if (!result.has_value() || !result->conclusive()) {
        std::printf("FAIL iter %llu (%s): reopened store cannot serve\n",
                    static_cast<unsigned long long>(iter), arm);
        ok = false;
      }
      db->sync();

      // After sync the write is durable: a second read-only recovery
      // equals the live state, one of the two fresh entries consumed.
      const auto after = store::recover(primary);
      if (serialize_state(after.registry, *after.ledger) !=
              serialize_state(db->registry(), db->crp_ledger()) ||
          after.ledger->remaining(fleet.devices[0].id) != std::size_t{1}) {
        std::printf("FAIL iter %llu (%s): recovery after sync does not show "
                    "the write\n",
                    static_cast<unsigned long long>(iter), arm);
        ok = false;
      }
    } catch (const store::StoreError& e) {
      std::printf("FAIL iter %llu (%s): recovery threw: %s\n",
                  static_cast<unsigned long long>(iter), arm, e.what());
      ok = false;
    }

    if (!ok) ++failed;
    fs::remove_all(primary);
  }

  std::printf("=== %llu iterations: %zu failed, %zu failed closed "
              "in-process (recovered cleanly) ===\n",
              static_cast<unsigned long long>(iters), failed, failed_closed);
  if (failed != 0) return 1;
  std::printf("[ok] reopen matched read-only recovery at every injected "
              "fault\n");
  return 0;
}

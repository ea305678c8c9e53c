// Concurrent attestation service tests: sharded registry semantics under
// contention, emulator-cache LRU accounting, revocation and re-enrollment,
// and the worker pool's backpressure, drain and verdict-parity contracts
// (same-device jobs included).  Every multi-threaded test here is
// expected to run clean under -DPUFATT_TSAN=ON (see README build matrix).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/distributed.hpp"
#include "core/enrollment.hpp"
#include "core/serialize.hpp"
#include "core/session.hpp"
#include "ecc/reed_muller.hpp"
#include "service/device_registry.hpp"
#include "service/emulator_cache.hpp"
#include "service/verifier_pool.hpp"
#include "variation/chip.hpp"

namespace pufatt::service {
namespace {

using support::Xoshiro256pp;

const ecc::ReedMuller1& code() {
  static const ecc::ReedMuller1 instance(5);
  return instance;
}

/// Shared fixture: enrolling real devices is the expensive part, so one
/// small fleet is built once and reused read-only by every test.
struct Fleet {
  struct Device {
    std::string id;
    std::unique_ptr<alupuf::PufDevice> device;
    core::EnrollmentRecord record;
  };
  std::vector<Device> devices;

  static const Fleet& instance() {
    static const Fleet fleet(3);
    return fleet;
  }

  /// Fresh registry holding every fleet device.
  DeviceRegistry make_registry(std::size_t shards = 16) const {
    DeviceRegistry registry(shards);
    for (const auto& dev : devices) registry.store(dev.id, dev.record);
    return registry;
  }

  /// Honest responder for `devices[index]`, deterministic in `seed`.
  core::Responder responder(std::size_t index, std::uint64_t seed) const {
    auto prover = std::make_shared<core::CpuProver>(
        *devices[index].device, devices[index].record,
        core::CpuProver::Variant::kHonest, seed);
    return [prover](const core::AttestationRequest& request) {
      auto outcome = prover->respond(request);
      return core::ProverReply{std::move(outcome.response),
                               outcome.compute_us};
    };
  }

 private:
  explicit Fleet(std::size_t count) {
    const auto profile = core::DistributedParams::small_profile();
    Xoshiro256pp rng(0x5E21);
    std::vector<std::uint32_t> firmware(600);
    for (auto& word : firmware) word = static_cast<std::uint32_t>(rng.next());
    const auto image = core::make_enrolled_image(profile, firmware);
    devices.resize(count);
    for (std::size_t d = 0; d < count; ++d) {
      devices[d].id = "unit-" + std::to_string(d);
      devices[d].device = std::make_unique<alupuf::PufDevice>(
          profile.puf_config, 0xACE0 + d, code());
      devices[d].record = core::enroll(*devices[d].device, profile, image);
    }
  }
};

// --- DeviceRegistry ---------------------------------------------------------

TEST(DeviceRegistry, StoreLoadEvict) {
  const auto& fleet = Fleet::instance();
  DeviceRegistry registry(4);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.load("unit-0"), nullptr);

  EXPECT_TRUE(registry.store("unit-0", fleet.devices[0].record));
  EXPECT_TRUE(registry.store("unit-1", fleet.devices[1].record));
  // Re-enrollment replaces in place and reports the id as already known.
  EXPECT_FALSE(registry.store("unit-0", fleet.devices[0].record));
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.contains("unit-1"));
  ASSERT_NE(registry.load("unit-1"), nullptr);

  EXPECT_TRUE(registry.evict("unit-0"));
  EXPECT_FALSE(registry.evict("unit-0"));
  EXPECT_FALSE(registry.contains("unit-0"));
  EXPECT_EQ(registry.device_ids(), std::vector<std::string>{"unit-1"});
}

TEST(DeviceRegistry, LoadedSnapshotSurvivesEviction) {
  const auto& fleet = Fleet::instance();
  auto registry = fleet.make_registry();
  const auto snapshot = registry.load(fleet.devices[0].id);
  ASSERT_NE(snapshot, nullptr);
  registry.evict(fleet.devices[0].id);
  // The shared_ptr keeps the record alive: a verifier built from it is
  // still usable after concurrent de-registration.
  const core::Verifier verifier(*snapshot, code());
  (void)verifier;
}

TEST(DeviceRegistry, SaveLoadRoundTripBytes) {
  const auto& fleet = Fleet::instance();
  const auto registry = fleet.make_registry();
  std::stringstream first;
  registry.save(first);

  std::stringstream input(first.str());
  const auto reloaded = DeviceRegistry::load_registry(input, /*shards=*/4);
  EXPECT_EQ(reloaded.size(), registry.size());
  EXPECT_EQ(reloaded.device_ids(), registry.device_ids());

  // save() sorts entries, so a reloaded registry reproduces the bytes
  // regardless of its shard count.
  std::stringstream second;
  reloaded.save(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(DeviceRegistry, RejectsMalformedInput) {
  std::stringstream garbage("not a registry");
  EXPECT_THROW(DeviceRegistry::load_registry(garbage),
               core::SerializationError);
}

TEST(DeviceRegistry, ConcurrentStoreLoadEvict) {
  const auto& fleet = Fleet::instance();
  const auto shared = std::make_shared<const core::DeviceSnapshot>(
      fleet.devices[0].record);
  DeviceRegistry registry(8);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> threads;
  std::atomic<int> null_loads{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::string own = "t" + std::to_string(t) + "-" +
                                std::to_string(op % 17);
        registry.store(own, shared);
        if (registry.load(own) == nullptr) ++null_loads;
        // Everyone also hammers one contended id across all shards' worth
        // of traffic: loads see either nullptr or a complete record.
        registry.store("contended", shared);
        const auto got = registry.load("contended");
        if (got != nullptr) {
          EXPECT_EQ(got->enrolled_image.size(), shared->enrolled_image.size());
        }
        if (op % 5 == 0) registry.evict("contended");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // A thread's own ids are never evicted: its loads always succeed.
  EXPECT_EQ(null_loads, 0);
  EXPECT_GE(registry.size(), static_cast<std::size_t>(kThreads * 17));
}

TEST(DeviceRegistry, SnapshotModelIsTheNominalDerivation) {
  const auto& fleet = Fleet::instance();
  const auto registry = fleet.make_registry();
  const auto& record = fleet.devices[0].record;
  const auto snapshot = registry.load(fleet.devices[0].id);
  ASSERT_NE(snapshot, nullptr);
  // Bit for bit the delays a verifier used to derive on every build.
  const auto& engine = snapshot->emulator().engine();
  const auto nominal = variation::delays_from_table(
      record.model, variation::Environment::nominal());
  ASSERT_EQ(engine.delays().rise_ps.size(), nominal.rise_ps.size());
  ASSERT_EQ(engine.delays().fall_ps.size(), nominal.fall_ps.size());
  const std::size_t bytes = nominal.rise_ps.size() * sizeof(double);
  EXPECT_EQ(std::memcmp(engine.delays().rise_ps.data(),
                        nominal.rise_ps.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(engine.delays().fall_ps.data(),
                        nominal.fall_ps.data(), bytes), 0);
  // And the plan of a fresh build.
  const alupuf::AluPufEmulator fresh(record.profile.puf_config.width,
                                     record.model,
                                     record.profile.puf_config.layout);
  EXPECT_EQ(engine.num_wide(), fresh.engine().num_wide());
  EXPECT_EQ(engine.num_plan_ops(), fresh.engine().num_plan_ops());
}

/// `record` under "unit-0" in DeviceRegistry::save's format, written
/// without a registry (which would refuse a bad record).
std::string registry_bytes(const core::EnrollmentRecord& record) {
  std::ostringstream out;
  const std::string id = "unit-0";
  const std::uint64_t count = 1;
  const std::uint64_t len = id.size();
  out.write("PFATREG1", 8);
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(&len), sizeof(len));
  out.write(id.data(), static_cast<std::streamsize>(id.size()));
  core::save_record(out, record);
  return out.str();
}

/// A record no verifier could serve is refused, for `reason`, when it
/// enters a registry, by store and by load_registry alike, and the
/// registry keeps what it held.
void expect_refused_at_load(const core::EnrollmentRecord& bad,
                            const std::string& reason) {
  const auto& fleet = Fleet::instance();
  std::istringstream good(registry_bytes(fleet.devices[0].record));
  ASSERT_EQ(DeviceRegistry::load_registry(good).size(), 1u);

  auto registry = fleet.make_registry();
  const auto before = registry.load("unit-0");
  try {
    registry.store("unit-0", bad);
    ADD_FAILURE() << "store accepted the record";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
  std::istringstream in(registry_bytes(bad));
  try {
    registry = DeviceRegistry::load_registry(in);
    ADD_FAILURE() << "load_registry accepted the record";
  } catch (const core::SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(registry.load("unit-0"), before);
  EXPECT_EQ(registry.device_ids(), fleet.make_registry().device_ids());
}

TEST(DeviceRegistry, DelayTableShortOfTheCircuitIsRefusedAtLoad) {
  auto bad = Fleet::instance().devices[0].record;
  for (auto* column : {&bad.model.intrinsic_ps, &bad.model.wire_ps,
                       &bad.model.vth_v, &bad.model.vth_tempco,
                       &bad.model.rise_factor, &bad.model.fall_factor}) {
    column->pop_back();
  }
  expect_refused_at_load(bad, "does not match the PUF circuit");
}

TEST(DeviceRegistry, PufWidthOtherThanTheProtocolsIsRefusedAtLoad) {
  // A record genuinely enrolled from a 16-bit die: its delay table matches
  // its circuit, so only the width check can refuse it.  Served, it would
  // make every verifier build throw inside a pool worker.
  auto profile = core::DistributedParams::small_profile();
  profile.puf_config.width = 16;
  const ecc::ReedMuller1 code16(4);
  const alupuf::PufDevice device(profile.puf_config, 0xACE9, code16);
  const auto image =
      core::make_enrolled_image(profile, std::vector<std::uint32_t>(600, 7));
  expect_refused_at_load(core::enroll(device, profile, image), "PUF width");
}

TEST(DeviceRegistry, InvalidSwatParamsAreRefusedAtLoad) {
  auto bad = Fleet::instance().devices[0].record;
  bad.profile.swat.rounds = 500;
  expect_refused_at_load(bad, "SwatParams");
}

TEST(DeviceRegistry, ClockThatIsNotFiniteAndPositiveIsRefusedAtLoad) {
  for (const double clock_mhz :
       {0.0, -860.0, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(clock_mhz);
    auto bad = Fleet::instance().devices[0].record;
    bad.profile.base_clock_mhz = clock_mhz;
    expect_refused_at_load(bad, "base clock");
  }
}

// --- EmulatorCache ----------------------------------------------------------

TEST(EmulatorCache, CountsHitsMissesEvictions) {
  const auto& fleet = Fleet::instance();
  const auto registry = fleet.make_registry();
  EmulatorCache cache(registry, code(), /*capacity=*/2);

  ASSERT_TRUE(cache.acquire("unit-0"));  // miss
  ASSERT_TRUE(cache.acquire("unit-0"));  // hit
  ASSERT_TRUE(cache.acquire("unit-1"));  // miss
  ASSERT_TRUE(cache.acquire("unit-2"));  // miss, evicts unit-0
  ASSERT_TRUE(cache.acquire("unit-0"));  // miss again

  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 4u);
  EXPECT_EQ(counters.evictions, 2u);
  EXPECT_LE(cache.size(), cache.capacity());
}

TEST(EmulatorCache, UnknownDeviceYieldsNoVerifier) {
  const auto& fleet = Fleet::instance();
  const auto registry = fleet.make_registry();
  EmulatorCache cache(registry, code(), 2);
  EXPECT_FALSE(cache.acquire("never-enrolled"));
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EmulatorCache, RevokedDeviceGetsNoVerifier) {
  const auto& fleet = Fleet::instance();
  auto registry = fleet.make_registry();
  EmulatorCache cache(registry, code(), 2);
  ASSERT_TRUE(cache.acquire("unit-0"));
  ASSERT_TRUE(registry.evict("unit-0"));
  EXPECT_FALSE(cache.acquire("unit-0"));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EmulatorCache, ReEnrolledDeviceIsVerifiedAgainstTheNewRecord) {
  const auto& fleet = Fleet::instance();
  auto registry = fleet.make_registry();
  EmulatorCache cache(registry, code(), 2);
  ASSERT_TRUE(cache.acquire("unit-0"));
  // The id now names another die (a board swap): its H replaces the old.
  registry.store("unit-0", fleet.devices[1].record);
  const auto verifier = cache.acquire("unit-0");
  ASSERT_TRUE(verifier);
  EXPECT_EQ(verifier->record().model.intrinsic_ps,
            fleet.devices[1].record.model.intrinsic_ps);
  EXPECT_EQ(cache.counters().hits, 0u);
  EXPECT_EQ(cache.counters().misses, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EmulatorCache, ConcurrentMissStormIsAccountedExactly) {
  const auto& fleet = Fleet::instance();
  const auto registry = fleet.make_registry();
  EmulatorCache cache(registry, code(), fleet.devices.size());

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    // All threads race to construct the same entries at once; losers'
    // instances are discarded, never doubled into the cache.
    threads.emplace_back([&] {
      for (const auto& dev : Fleet::instance().devices) {
        ASSERT_TRUE(cache.acquire(dev.id));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits + counters.misses,
            static_cast<std::size_t>(kThreads) * fleet.devices.size());
  EXPECT_EQ(cache.size(), fleet.devices.size());
  EXPECT_EQ(counters.evictions, 0u);
}

TEST(EmulatorCache, VerifierSharesTheRegistryRecord) {
  const auto& fleet = Fleet::instance();
  const auto registry = fleet.make_registry();
  EmulatorCache cache(registry, code(), 2);
  const auto verifier = cache.acquire("unit-0");
  ASSERT_TRUE(verifier);
  const auto snapshot = registry.load("unit-0");
  // The registry's own snapshot, record and model, not copies of them.
  EXPECT_EQ(&verifier->record(), snapshot.get());
  EXPECT_EQ(verifier->snapshot(), snapshot);
  EXPECT_EQ(&verifier->emulator().raw_emulator(), &snapshot->emulator());
  EXPECT_THROW(core::Verifier(nullptr, code()), std::invalid_argument);
}

TEST(EmulatorCache, ReacquiredVerifierUsesTheSnapshotModel) {
  const auto& fleet = Fleet::instance();
  const auto registry = fleet.make_registry();
  EmulatorCache cache(registry, code(), 1);
  const auto first = cache.acquire("unit-0");
  ASSERT_TRUE(first);
  ASSERT_TRUE(cache.acquire("unit-1"));  // pushes unit-0 out of the cache
  const auto again = cache.acquire("unit-0");
  ASSERT_TRUE(again);
  EXPECT_EQ(cache.counters().misses, 3u);
  // A new verifier, over the one model the registry derived.
  EXPECT_NE(again, first);
  const auto snapshot = registry.load("unit-0");
  EXPECT_EQ(again->snapshot(), snapshot);
  EXPECT_EQ(&again->emulator().raw_emulator(), &snapshot->emulator());
  EXPECT_EQ(&first->emulator().raw_emulator(), &snapshot->emulator());
}

TEST(EmulatorCache, VerifierOutlivesRegistryAndCacheEviction) {
  const auto& fleet = Fleet::instance();
  auto registry = fleet.make_registry();
  EmulatorCache cache(registry, code(), 1);
  auto verifier = cache.acquire("unit-0");
  ASSERT_TRUE(verifier);
  const std::weak_ptr<const core::DeviceSnapshot> snapshot =
      verifier->snapshot();
  ASSERT_TRUE(cache.acquire("unit-1"));  // pushes unit-0 out of the cache
  EXPECT_EQ(cache.counters().evictions, 1u);
  ASSERT_TRUE(registry.evict("unit-0"));
  EXPECT_FALSE(cache.acquire("unit-0"));
  // Only the held verifier keeps the snapshot alive now, and it still
  // attests the device.
  {
    const PoolConfig config;
    core::FaultyChannel link(config.channel, core::FaultParams{}, 0x51);
    core::AttestationSession session(*verifier, link, config.session);
    Xoshiro256pp rng(0x52);
    EXPECT_TRUE(session.run(fleet.responder(0, 0x53), rng).accepted());
  }
  EXPECT_FALSE(snapshot.expired());
  verifier.reset();
  EXPECT_TRUE(snapshot.expired());
}

TEST(EmulatorCache, ByteEqualReEnrollmentIsStillAMiss) {
  const auto& fleet = Fleet::instance();
  auto registry = fleet.make_registry();
  EmulatorCache cache(registry, code(), 2);
  const auto before = cache.acquire("unit-0");
  ASSERT_TRUE(before);
  // Same contents, new snapshot: the cache keys on the snapshot itself,
  // and the new snapshot brings its own model.
  registry.store("unit-0", fleet.devices[0].record);
  const auto after = cache.acquire("unit-0");
  ASSERT_TRUE(after);
  EXPECT_NE(after, before);
  EXPECT_NE(after->snapshot(), before->snapshot());
  EXPECT_EQ(after->snapshot(), registry.load("unit-0"));
  EXPECT_NE(&after->emulator().raw_emulator(),
            &before->emulator().raw_emulator());
  EXPECT_EQ(cache.counters().hits, 0u);
  EXPECT_EQ(cache.counters().misses, 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.acquire("unit-0"), after);
  EXPECT_EQ(cache.counters().hits, 1u);
}

// --- VerifierPool -----------------------------------------------------------

TEST(VerifierPool, RunsJobsToCompletionWithCorrectOutcomes) {
  const auto& fleet = Fleet::instance();
  const auto registry = fleet.make_registry();
  EmulatorCache cache(registry, code(), fleet.devices.size());

  PoolConfig config;
  config.workers = 4;
  config.queue_capacity = 16;

  std::mutex results_mutex;
  std::vector<JobResult> results;
  VerifierPool pool(cache, config, [&](const JobResult& result) {
    std::lock_guard<std::mutex> lock(results_mutex);
    results.push_back(result);
  });

  constexpr std::size_t kJobs = 6;
  for (std::size_t job = 0; job < kJobs; ++job) {
    AttestationJob j;
    j.device_id = fleet.devices[job % fleet.devices.size()].id;
    j.responder = fleet.responder(job % fleet.devices.size(), 0x100 + job);
    j.channel_seed = 0x200 + job;
    j.rng_seed = 0x300 + job;
    j.tag = job;
    ASSERT_TRUE(pool.submit(std::move(j)).enqueued());
  }
  AttestationJob ghost;
  ghost.device_id = "never-enrolled";
  ghost.tag = kJobs;
  ASSERT_TRUE(pool.submit(std::move(ghost)).enqueued());

  pool.drain();
  EXPECT_EQ(results.size(), kJobs + 1);

  const auto snapshot = pool.metrics_snapshot();
  EXPECT_EQ(snapshot.submitted, kJobs + 1);
  EXPECT_EQ(snapshot.accepted, kJobs);  // honest provers on a clean link
  EXPECT_EQ(snapshot.unknown_device, 1u);
  EXPECT_EQ(snapshot.rejected_busy, 0u);
  EXPECT_EQ(snapshot.completed(), kJobs + 1);
  EXPECT_GE(snapshot.queue_depth_hwm, 1u);
  for (const auto& result : results) {
    if (result.device_id == "never-enrolled") {
      EXPECT_EQ(result.outcome, JobOutcome::kUnknownDevice);
    } else {
      EXPECT_EQ(result.outcome, JobOutcome::kAccepted);
      EXPECT_TRUE(result.session.accepted());
    }
  }
}

TEST(VerifierPool, FullQueueRejectsWithRetryAfterHint) {
  const auto& fleet = Fleet::instance();
  const auto registry = fleet.make_registry();
  EmulatorCache cache(registry, code(), 2);

  PoolConfig config;
  config.workers = 1;
  config.queue_capacity = 1;

  std::promise<void> release;
  const auto released = release.get_future().share();
  VerifierPool pool(cache, config);

  // One job blocks the single worker inside its responder; the next fills
  // the one queue slot; the third must be shed with a positive hint.
  auto blocking_job = [&](std::uint64_t tag) {
    AttestationJob j;
    j.device_id = fleet.devices[0].id;
    // `tag` by value: the responder runs after blocking_job has returned.
    j.responder = [&, released,
                   tag](const core::AttestationRequest& request) {
      released.wait();
      auto prover = std::make_shared<core::CpuProver>(
          *fleet.devices[0].device, fleet.devices[0].record,
          core::CpuProver::Variant::kHonest, tag);
      auto outcome = prover->respond(request);
      return core::ProverReply{std::move(outcome.response),
                               outcome.compute_us};
    };
    j.rng_seed = tag;
    j.tag = tag;
    return j;
  };

  ASSERT_TRUE(pool.submit(blocking_job(0)).enqueued());
  // Wait until the worker has picked up job 0, so job 1 occupies the queue.
  while (pool.queue_depth() != 0) std::this_thread::yield();
  ASSERT_TRUE(pool.submit(blocking_job(1)).enqueued());

  const auto shed = pool.submit(blocking_job(2));
  EXPECT_EQ(shed.status, SubmitStatus::kRejectedBusy);
  EXPECT_FALSE(shed.enqueued());
  EXPECT_GT(shed.retry_after_us, 0.0);
  EXPECT_EQ(pool.metrics_snapshot().rejected_busy, 1u);

  release.set_value();
  pool.drain();
  EXPECT_EQ(pool.metrics_snapshot().completed(), 2u);
}

TEST(VerifierPool, DrainStopsIntakeAndIsIdempotent) {
  const auto& fleet = Fleet::instance();
  const auto registry = fleet.make_registry();
  EmulatorCache cache(registry, code(), 2);
  VerifierPool pool(cache, PoolConfig{});

  AttestationJob j;
  j.device_id = fleet.devices[0].id;
  j.responder = fleet.responder(0, 7);
  j.tag = 7;
  ASSERT_TRUE(pool.submit(std::move(j)).enqueued());

  pool.drain();
  pool.drain();  // idempotent
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.metrics_snapshot().completed(), 1u);

  AttestationJob late;
  late.device_id = fleet.devices[0].id;
  EXPECT_EQ(pool.submit(std::move(late)).status, SubmitStatus::kShuttingDown);

  pool.shutdown();
  pool.shutdown();  // idempotent
}

// The determinism contract behind bench/service_throughput's parity claim:
// with per-job seeds, worker count changes wall time, never a verdict.
TEST(VerifierPool, VerdictsMatchAcrossWorkerCounts) {
  const auto& fleet = Fleet::instance();
  const auto registry = fleet.make_registry();
  constexpr std::size_t kJobs = 9;

  core::FaultParams faults;
  faults.loss_prob = 0.15;  // force some retry traffic into the sessions

  auto run_with = [&](std::size_t workers) {
    EmulatorCache cache(registry, code(), fleet.devices.size());
    PoolConfig config;
    config.workers = workers;
    config.queue_capacity = kJobs;

    std::mutex verdict_mutex;
    std::vector<core::SessionStatus> verdicts(
        kJobs, core::SessionStatus::kRetriesExhausted);
    VerifierPool pool(cache, config, [&](const JobResult& result) {
      std::lock_guard<std::mutex> lock(verdict_mutex);
      verdicts[result.tag] = result.session.status;
    });
    for (std::size_t job = 0; job < kJobs; ++job) {
      AttestationJob j;
      j.device_id = fleet.devices[job % fleet.devices.size()].id;
      j.responder = fleet.responder(job % fleet.devices.size(), 0xA0 + job);
      j.faults = faults;
      j.channel_seed = 0xB0 + job;
      j.rng_seed = 0xC0 + job;
      j.tag = job;
      EXPECT_TRUE(pool.submit(std::move(j)).enqueued());
    }
    pool.drain();
    return verdicts;
  };

  const auto serial = run_with(1);
  const auto pooled = run_with(4);
  EXPECT_EQ(serial, pooled);
}

// Jobs of one device share its cached verifier and its simulated PufDevice
// and run side by side: each must still get exactly the session it gets
// alone.
TEST(VerifierPool, SameDeviceJobsMatchSerialVerdicts) {
  const auto& fleet = Fleet::instance();
  const auto registry = fleet.make_registry();
  constexpr std::size_t kJobs = 16;

  core::FaultParams faults;
  faults.loss_prob = 0.15;  // force some retry traffic into the sessions
  auto make_job = [&](std::size_t job) {
    AttestationJob j;
    j.device_id = fleet.devices[0].id;
    j.responder = fleet.responder(0, 0xD0 + job);
    j.faults = faults;
    j.channel_seed = 0xE0 + job;
    j.rng_seed = 0xF0 + job;
    j.tag = job;
    return j;
  };

  PoolConfig config;
  config.workers = 4;
  config.queue_capacity = kJobs;
  std::vector<core::SessionOutcome> serial(kJobs);
  const core::Verifier verifier(fleet.devices[0].record, code());
  for (std::size_t job = 0; job < kJobs; ++job) {
    const auto j = make_job(job);
    core::FaultyChannel link(config.channel, j.faults, j.channel_seed);
    core::AttestationSession session(verifier, link, config.session);
    Xoshiro256pp rng(j.rng_seed);
    serial[job] = session.run(j.responder, rng);
  }

  EmulatorCache cache(registry, code(), fleet.devices.size());
  std::mutex results_mutex;
  std::vector<JobResult> pooled(kJobs);
  VerifierPool pool(cache, config, [&](const JobResult& result) {
    std::lock_guard<std::mutex> lock(results_mutex);
    pooled[result.tag] = result;
  });
  for (std::size_t job = 0; job < kJobs; ++job) {
    ASSERT_TRUE(pool.submit(make_job(job)).enqueued());
  }
  pool.drain();

  std::size_t accepted = 0;
  for (std::size_t job = 0; job < kJobs; ++job) {
    SCOPED_TRACE("job " + std::to_string(job));
    const auto expected =
        serial[job].accepted()     ? JobOutcome::kAccepted
        : serial[job].conclusive() ? JobOutcome::kRejected
                                   : JobOutcome::kInconclusive;
    EXPECT_EQ(pooled[job].outcome, expected);
    EXPECT_EQ(pooled[job].session.status, serial[job].status);
    EXPECT_EQ(pooled[job].session.attempts.size(), serial[job].attempts.size());
    EXPECT_EQ(pooled[job].session.total_us, serial[job].total_us);
    accepted += serial[job].accepted() ? 1 : 0;
  }
  EXPECT_GT(accepted, kJobs / 2);  // honest device: most sessions conclude
}

// save_file is atomic (temp file + rename): a failed save must leave the
// previous on-disk registry byte-for-byte intact, never a torn file.
TEST(DeviceRegistry, FailedSaveLeavesOldFileIntact) {
  const auto& fleet = Fleet::instance();
  const std::string path =
      ::testing::TempDir() + "pufatt_registry_atomic.bin";
  const std::string tmp = path + ".tmp";
  std::filesystem::remove(path);
  std::filesystem::remove_all(tmp);

  auto registry = fleet.make_registry();
  registry.save_file(path);
  std::string original;
  {
    std::ifstream in(path, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(original.empty());

  // Simulated partial write: the temp path cannot be opened as a file (a
  // directory squats on it), so the save dies before touching `path`.
  std::filesystem::create_directory(tmp);
  DeviceRegistry changed(4);
  changed.store(fleet.devices[0].id, fleet.devices[0].record);
  EXPECT_THROW(changed.save_file(path), core::SerializationError);

  std::string after;
  {
    std::ifstream in(path, std::ios::binary);
    after.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  EXPECT_EQ(after, original);  // the old complete file, untouched
  auto reloaded = DeviceRegistry::load_registry_file(path);
  EXPECT_EQ(reloaded.size(), fleet.devices.size());

  // With the obstruction gone the same save lands atomically.
  std::filesystem::remove_all(tmp);
  changed.save_file(path);
  EXPECT_EQ(DeviceRegistry::load_registry_file(path).size(), 1u);
  EXPECT_FALSE(std::filesystem::exists(tmp));  // no debris either way
}

}  // namespace
}  // namespace pufatt::service

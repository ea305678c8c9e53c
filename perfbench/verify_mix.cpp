// verify_mix: verifier compute alone.
//
// One thread calls core::Verifier::verify on a transcript corpus recorded
// at setup by the real PR32 CpuProvers (standard profile: 2048 rounds,
// 32 PUF calls; 8 devices, verifiers built once).  The corpus holds, per
// device, six honest transcripts and one of each attack, so every pass
// over it is exactly 60 % honest and 10 % each of
//   naive malware         tampered image, honest program: the checksum
//                         differs after the full 32 emulated calls;
//   redirect, 1.0x clock  checksum preserved but over the time bound, so
//                         rejected before any emulation;
//   redirect, 1.35x clock overclocked to meet the bound, which corrupts
//                         the PUF: reconstruction fails early;
//   wrong die             an honest program on another device's PUF:
//                         reconstruction fails early.
// (alupuf.reject_at_call in the traced run says how early.)
// Accepts pay the whole emulation; the rejects stop at different depths,
// so a fast path for one side that slows the other moves the mean.
// net, service and the prover are bypassed.  Every transcript is one fixed
// draw; the fleet is screened once, before set-up (screened_fleet_seed).
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>

#include "core/channel.hpp"
#include "core/protocol.hpp"
#include "ecc/reed_muller.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pufatt;

namespace {

enum Kind : std::size_t {
  kHonest,
  kNaiveMalware,
  kRedirect,
  kRedirectOverclock,
  kWrongDie,
  kKinds
};

constexpr const char* kKindName[kKinds] = {
    "honest", "naive_malware", "redirect_1.0x", "redirect_1.35x", "wrong_die"};
constexpr core::VerifyStatus kExpected[kKinds] = {
    core::VerifyStatus::kAccepted, core::VerifyStatus::kChecksumMismatch,
    core::VerifyStatus::kTimeExceeded,
    core::VerifyStatus::kPufReconstructionFailed,
    core::VerifyStatus::kPufReconstructionFailed};
constexpr double kTargetShare[kKinds] = {0.6, 0.1, 0.1, 0.1, 0.1};
constexpr std::size_t kDevices = 8;
constexpr std::size_t kHonestPerDevice = 6;
constexpr double kOverclock = 1.35;
/// Words tampered by the naive malware, inside the attested region: with
/// 2048 rounds over 4096 words each is read with p ~ 0.39, so missing all
/// of them has probability ~1e-13.
constexpr std::size_t kTamperWords = 60;

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step per tick().
///
/// On shared hosts the interference a core suffers comes and goes for
/// seconds at a time, independently per core: four copies of the verify
/// engine pinned to four vCPUs slowed by up to ~45 % at uncorrelated
/// times.  A single-threaded workload that stays on one core measures that
/// core's luck; stepping it round the cores spreads the luck out.  Each
/// tick pins the thread to the next CPU, which migrates it there, and then
/// lifts the pin at once, so the scheduler can still move it off a core
/// that another runnable thread wants.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }

  void tick() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct Transcript {
  std::size_t device = 0;
  Kind kind = kHonest;
  core::AttestationRequest request;
  core::AttestationResponse response;
  double elapsed_us = 0.0;
};

struct Corpus {
  ecc::ReedMuller1 code{5};
  std::vector<std::unique_ptr<alupuf::PufDevice>> devices;
  std::vector<core::EnrollmentRecord> records;
  std::vector<std::unique_ptr<core::Verifier>> verifiers;
  std::vector<Transcript> transcripts;
  std::vector<std::size_t> schedule;  ///< transcript indices, mix order
};

/// Enrolls the fleet of `fleet_seed` on the firmware of the workload seed
/// and builds its verifiers.
std::unique_ptr<Corpus> enroll_fleet(std::uint64_t seed,
                                     std::uint64_t fleet_seed) {
  auto c = std::make_unique<Corpus>();
  const auto profile = core::DeviceProfile::standard();
  support::Xoshiro256pp rng(derive_seed(seed, 1));
  std::vector<std::uint32_t> firmware(600);
  for (auto& word : firmware) word = static_cast<std::uint32_t>(rng.next());
  const auto image = core::make_enrolled_image(profile, firmware);

  for (std::size_t d = 0; d < kDevices; ++d) {
    c->devices.push_back(std::make_unique<alupuf::PufDevice>(
        profile.puf_config, derive_seed(fleet_seed, 100 + d), c->code));
    c->records.push_back(core::enroll(*c->devices[d], profile, image));
  }
  for (std::size_t d = 0; d < kDevices; ++d) {
    c->verifiers.push_back(
        std::make_unique<core::Verifier>(c->records[d], c->code));
  }
  return c;
}

/// Runs device `d`'s prover of class `kind` once.  The wrong die is always
/// the next device's, attesting under device d's record.
Transcript draw(const Corpus& c, std::size_t d, Kind kind,
                support::Xoshiro256pp& rng) {
  using V = core::CpuProver::Variant;
  const auto& rec = c.records[d];
  auto prover_record = rec;
  if (kind == kNaiveMalware) {
    const std::size_t end = prover_record.enrolled_image.size() - 100;
    for (std::size_t w = end - kTamperWords; w < end; ++w) {
      prover_record.enrolled_image[w] ^= 0x5A5A5A5Au;
    }
  }
  const bool redirect = kind == kRedirect || kind == kRedirectOverclock;
  std::optional<double> clock_mhz;
  if (kind == kRedirectOverclock) {
    clock_mhz = rec.profile.base_clock_mhz * kOverclock;
  }
  const std::size_t die = kind == kWrongDie ? (d + 1) % kDevices : d;
  core::CpuProver prover(*c.devices[die], prover_record,
                         redirect ? V::kRedirectMalware : V::kHonest,
                         rng.next(), clock_mhz);
  Transcript t;
  t.device = d;
  t.kind = kind;
  t.request = core::AttestationRequest{rng.next()};
  auto outcome = prover.respond(t.request);
  const core::Channel channel;  // the verifier's own link assumption
  t.elapsed_us = outcome.compute_us +
                 channel.round_trip_us(8, outcome.response.wire_bytes());
  t.response = std::move(outcome.response);
  return t;
}

core::VerifyStatus verdict(const Corpus& c, const Transcript& t) {
  return c.verifiers[t.device]->verify(t.request, t.response, t.elapsed_us)
      .status;
}

/// Enrolls the fleet of `fleet_seed` and records the corpus: one draw per
/// slot from a stream of the workload seed.
std::unique_ptr<Corpus> build_corpus(std::uint64_t seed,
                                     std::uint64_t fleet_seed) {
  auto c = enroll_fleet(seed, fleet_seed);
  support::Xoshiro256pp rng(derive_seed(seed, 2));
  CoreRotation rotation;
  auto record = [&](std::size_t d, Kind kind) {
    rotation.tick();
    c->transcripts.push_back(draw(*c, d, kind, rng));
  };
  for (std::size_t d = 0; d < kDevices; ++d) {
    for (std::size_t h = 0; h < kHonestPerDevice; ++h) record(d, kHonest);
    for (const Kind kind :
         {kNaiveMalware, kRedirect, kRedirectOverclock, kWrongDie}) {
      record(d, kind);
    }
  }
  c->schedule.resize(c->transcripts.size());
  std::iota(c->schedule.begin(), c->schedule.end(), std::size_t{0});
  for (std::size_t i = c->schedule.size(); i > 1; --i) {
    std::swap(c->schedule[i - 1], c->schedule[rng.next() % i]);
  }
  return c;
}

void check_status(const Transcript& t, core::VerifyStatus status) {
  require(status == kExpected[t.kind],
          std::string("verify_mix: ") + kKindName[t.kind] + " transcript of "
              "device " + std::to_string(t.device) + " verified as '" +
              core::to_string(status) + "', expected '" +
              core::to_string(kExpected[t.kind]) + "'");
}

/// Setup: enrollment, verifier construction, corpus recording and one
/// warm pass that also checks every transcript's verdict.
std::unique_ptr<Corpus> setup(std::uint64_t seed, std::uint64_t fleet_seed) {
  auto corpus = build_corpus(seed, fleet_seed);
  for (const auto& t : corpus->transcripts) {
    check_status(t, verdict(*corpus, t));
  }
  return corpus;
}

/// Picks the fleet seed.  Dies drawn from arbitrary seeds are not all
/// equally reliable: a few fail a share of their own honest attestations,
/// and a few die pairs are close enough that one device's verifier
/// reconstructs its neighbour's responses.  A candidate fleet is served
/// only if its recorded corpus verifies exactly as its classes expect and
/// every device also accepts kScreenHonest further honest attestations and
/// rejects kScreenImpostor further ones from its wrong die.  No transcript
/// is redrawn: a candidate that misses once is dropped whole, and the
/// number dropped is printed.  A verifier that falsely rejects or accepts
/// a sizeable share of any class therefore exhausts the candidates and
/// fails the run.
std::uint64_t screened_fleet_seed(std::uint64_t seed) {
  constexpr std::size_t kScreenHonest = 8;
  constexpr std::size_t kScreenImpostor = 4;
  constexpr std::size_t kCandidates = 6;
  for (std::size_t k = 0; k < kCandidates; ++k) {
    const std::uint64_t candidate = derive_seed(seed, 3 + 100 * k);
    const auto corpus = build_corpus(seed, candidate);
    bool reliable = true;
    for (const auto& t : corpus->transcripts) {
      reliable = reliable && verdict(*corpus, t) == kExpected[t.kind];
    }
    support::Xoshiro256pp rng(derive_seed(candidate, 5));
    for (std::size_t d = 0; reliable && d < kDevices; ++d) {
      for (std::size_t i = 0; reliable && i < kScreenHonest; ++i) {
        reliable = verdict(*corpus, draw(*corpus, d, kHonest, rng)) ==
                   kExpected[kHonest];
      }
      for (std::size_t i = 0; reliable && i < kScreenImpostor; ++i) {
        reliable = verdict(*corpus, draw(*corpus, d, kWrongDie, rng)) ==
                   kExpected[kWrongDie];
      }
    }
    if (reliable) {
      std::printf("fleet: candidate %zu served, %zu dropped by the screen "
                  "(corpus + %zu honest + %zu impostor per device)\n",
                  k, k, kScreenHonest, kScreenImpostor);
      return candidate;
    }
  }
  throw CheckFailed{"verify_mix: none of " + std::to_string(kCandidates) +
                    " candidate fleets passed the screen"};
}

struct Window {
  std::vector<double> latency_us;
  std::array<std::uint64_t, kKinds> per_kind{};
};

/// One pass over the schedule, timing each Verifier::verify call.  Whole
/// passes keep the class mix exact.
void plain_pass(const Corpus& c, Window& w, FailureTally& tally) {
  for (const std::size_t index : c.schedule) {
    const auto& t = c.transcripts[index];
    ++tally.attempted;
    core::VerifyResult result;
    const auto start = Clock::now();
    try {
      result = c.verifiers[t.device]->verify(t.request, t.response,
                                             t.elapsed_us);
    } catch (const std::exception&) {
      ++tally.exceptions;
      ++tally.failed;
      continue;
    }
    w.latency_us.push_back(micros_between(start, Clock::now()));
    check_status(t, result.status);
    ++w.per_kind[t.kind];
  }
}

void check_mix(const Window& w) {
  const double total = static_cast<double>(w.latency_us.size());
  for (std::size_t k = 0; k < kKinds; ++k) {
    const double share = static_cast<double>(w.per_kind[k]) / total;
    require(std::abs(share - kTargetShare[k]) < 0.005,
            std::string("verify_mix: class ") + kKindName[k] + " share " +
                std::to_string(share) + " drifted from its target");
  }
}

}  // namespace

RunResult run_verify_mix(const Options& options) {
  RunResult out;
  std::vector<double> setup_s;
  const std::uint64_t fleet_seed = screened_fleet_seed(options.seed);
  std::unique_ptr<Corpus> corpus;
  for (int r = 0; r < kSetupRepeats; ++r) {
    corpus.reset();
    const auto start = Clock::now();
    corpus = setup(options.seed, fleet_seed);
    setup_s.push_back(seconds_since(start));
  }
  std::printf("verify_mix: %zu devices, %zu transcripts, setup %.3f s "
              "(median of %s)\n",
              corpus->verifiers.size(), corpus->transcripts.size(),
              median_of(setup_s), list_of(setup_s).c_str());

  if (!options.trace) {
    Window w;
    w.latency_us.reserve(1 << 16);
    CoreRotation rotation;
    const double cpu0 = process_cpu_us();
    const auto start = Clock::now();
    do {
      rotation.tick();
      plain_pass(*corpus, w, out.tally);
    } while (seconds_since(start) < options.seconds);
    const double wall_s = seconds_since(start);
    const double cpu_us = process_cpu_us() - cpu0;
    out.e2e.peak_rss_mb = peak_rss_mb();
    check_mix(w);
    const double n = static_cast<double>(w.latency_us.size());
    std::sort(w.latency_us.begin(), w.latency_us.end());
    out.e2e.verdicts_per_s = n / wall_s;
    out.e2e.latency_mean_us = mean_of(w.latency_us);
    out.e2e.p50 = tail_percentile(w.latency_us, 50);
    out.e2e.p90 = tail_percentile(w.latency_us, 90);
    out.e2e.p99 = tail_percentile(w.latency_us, 99);
    out.e2e.cpu_us_per_verdict = cpu_us / n;
    out.e2e.setup_s = median_of(setup_s);
    return out;
  }

  // Traced run: plain passes (the overhead baseline) alternate with
  // probed passes over the same schedule, so both see the same machine.
  std::vector<std::unique_ptr<LayerProbe>> probes;
  for (const auto& record : corpus->records) {
    probes.push_back(std::make_unique<LayerProbe>(record, corpus->code));
  }
  Window plain;
  LayerTimes times;
  CoreRotation rotation;
  const auto start = Clock::now();
  do {
    rotation.tick();
    plain_pass(*corpus, plain, out.tally);
    for (const std::size_t index : corpus->schedule) {
      const auto& t = corpus->transcripts[index];
      ++out.tally.attempted;
      check_status(t, probes[t.device]->verify(t.request, t.response,
                                               t.elapsed_us, times));
    }
  } while (seconds_since(start) < options.seconds);
  check_mix(plain);
  const double plain_us = mean_of(plain.latency_us);

  auto& layers = out.layers;
  fill_probe_layers(times, layers);
  layers.trace_overhead_frac = layers.core_verify_us / plain_us - 1.0;
  layers.trace_unaccounted_frac = 1.0 - times.leaf_us() / times.verify_us;
  std::vector<const core::EnrollmentRecord*> records;
  for (const auto& record : corpus->records) records.push_back(&record);
  measure_verifier_build(records, corpus->code, 16, layers);
  return out;
}

}  // namespace perfbench

// Durable store bench: what does crash safety cost, and how fast does a
// verifier come back?
//
// Three measurements, stable JSON schema (BENCH_store_recovery.json):
//   1. WAL append throughput across payload sizes and the group-commit
//      knob (sync_every=1 -> one fsync per record, the worst case;
//      sync_every=32 -> one fsync amortized over 32 appends);
//   2. recovery time vs log size (read + CRC-validate + replay);
//   3. an end-to-end kill-and-recover of a real verifier store (enroll,
//      consume CRP entries, reopen) gating correctness: recovered
//      remaining() must match, and two recoveries must serialize to
//      byte-identical state.
//
// `--smoke` runs a tiny sweep as a ctest smoke test labeled 'bench' and
// gates only the correctness claims; the full run reports real rates.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/crp_database.hpp"
#include "core/distributed.hpp"
#include "core/enrollment.hpp"
#include "ecc/reed_muller.hpp"
#include "store/records.hpp"
#include "store/recovery.hpp"
#include "store/verifier_store.hpp"
#include "store/wal.hpp"

using namespace pufatt;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const ecc::ReedMuller1& code() {
  static const ecc::ReedMuller1 instance(5);
  return instance;
}

std::string bench_dir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("pufatt_bench_store_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

struct AppendResult {
  std::size_t payload_bytes = 0;
  std::size_t sync_every = 0;
  std::size_t records = 0;
  double records_per_s = 0.0;
  double mb_per_s = 0.0;
  double mean_append_us = 0.0;
};

AppendResult bench_append(std::size_t records, std::size_t payload_bytes,
                          std::size_t sync_every) {
  const std::string dir = bench_dir("append");
  store::WalOptions options;
  options.sync_every = sync_every;
  const std::string payload(payload_bytes, 'b');
  AppendResult result;
  result.payload_bytes = payload_bytes;
  result.sync_every = sync_every;
  result.records = records;
  {
    store::WalWriter wal(dir, options);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < records; ++i) {
      wal.append(store::kCheckpoint, payload);
    }
    wal.sync();
    const double elapsed = seconds_since(t0);
    result.records_per_s = static_cast<double>(records) / elapsed;
    result.mb_per_s = static_cast<double>(wal.appended_bytes()) /
                      (1024.0 * 1024.0) / elapsed;
    result.mean_append_us = 1e6 * elapsed / static_cast<double>(records);
  }
  fs::remove_all(dir);
  return result;
}

struct RecoveryResult {
  std::size_t records = 0;
  std::uint64_t bytes = 0;
  double recover_s = 0.0;
  double records_per_s = 0.0;
  bool counts_match = false;
};

RecoveryResult bench_recovery(std::size_t records) {
  const std::string dir = bench_dir("recovery");
  const std::string payload(64, 'r');
  {
    store::WalWriter wal(dir);
    for (std::size_t i = 0; i < records; ++i) {
      wal.append(store::kCheckpoint, payload);
    }
    wal.sync();
  }
  RecoveryResult result;
  result.records = records;
  const auto t0 = Clock::now();
  const auto state = store::recover(dir);
  result.recover_s = seconds_since(t0);
  result.bytes = state.stats.wal_bytes;
  result.records_per_s =
      static_cast<double>(records) / std::max(result.recover_s, 1e-12);
  result.counts_match = state.stats.records_replayed == records &&
                        !state.stats.torn_tail;
  fs::remove_all(dir);
  return result;
}

struct StoreResult {
  std::size_t devices = 0;
  std::size_t entries_per_device = 0;
  std::size_t consumed = 0;
  std::size_t remaining_after_recovery = 0;
  double reopen_s = 0.0;
  bool remaining_match = false;
  bool byte_stable = false;
};

/// End-to-end kill-and-recover: the acceptance workload as a bench.
StoreResult bench_store(std::size_t devices, std::size_t entries,
                        std::size_t consume) {
  const std::string dir = bench_dir("kill_recover");
  StoreResult result;
  result.devices = devices;
  result.entries_per_device = entries;
  result.consumed = consume;

  const auto profile = core::DistributedParams::small_profile();
  support::Xoshiro256pp rng(0x57B);
  std::vector<std::uint32_t> firmware(600);
  for (auto& word : firmware) word = static_cast<std::uint32_t>(rng.next());
  const auto image = core::make_enrolled_image(profile, firmware);

  std::vector<std::unique_ptr<alupuf::PufDevice>> fleet;
  {
    auto db = store::VerifierStore::open(dir);
    for (std::size_t d = 0; d < devices; ++d) {
      fleet.push_back(std::make_unique<alupuf::PufDevice>(
          profile.puf_config, 0xBE7D + d, code()));
      db->enroll("bench-" + std::to_string(d),
                 core::enroll(*fleet.back(), profile, image));
      support::Xoshiro256pp crp_rng(0xC21 + d);
      db->enroll_crps(
          "bench-" + std::to_string(d),
          core::CrpDatabase::collect(fleet.back()->raw_puf(), entries,
                                     crp_rng));
    }
    for (std::size_t k = 0; k < consume; ++k) {
      const std::size_t d = k % devices;
      (void)db->authenticate_crp("bench-" + std::to_string(d),
                                 fleet[d]->raw_puf(), rng);
    }
    db->sync();
  }  // process state dropped

  const auto t0 = Clock::now();
  auto recovered = store::VerifierStore::open(dir);
  result.reopen_s = seconds_since(t0);
  result.remaining_after_recovery = recovered->recovery_stats().crp_remaining;
  result.remaining_match =
      result.remaining_after_recovery == devices * entries - consume;

  auto serialize = [&] {
    const auto state = store::recover(dir);
    std::stringstream registry(std::ios::in | std::ios::out |
                               std::ios::binary);
    state.registry.save(registry);
    std::stringstream ledger(std::ios::in | std::ios::out | std::ios::binary);
    state.ledger->save(ledger);
    return registry.str() + ledger.str();
  };
  result.byte_stable = serialize() == serialize();
  fs::remove_all(dir);
  return result;
}

void write_json(bool smoke, const std::vector<AppendResult>& appends,
                const std::vector<RecoveryResult>& recoveries,
                const StoreResult& kill, bool ok) {
  std::FILE* f = std::fopen("BENCH_store_recovery.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"store_recovery\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"append\": [\n");
  for (std::size_t i = 0; i < appends.size(); ++i) {
    const auto& a = appends[i];
    std::fprintf(f,
                 "    {\"payload_bytes\": %zu, \"sync_every\": %zu, "
                 "\"records\": %zu, \"records_per_s\": %.0f, "
                 "\"mb_per_s\": %.2f, \"mean_append_us\": %.3f}%s\n",
                 a.payload_bytes, a.sync_every, a.records, a.records_per_s,
                 a.mb_per_s, a.mean_append_us,
                 i + 1 < appends.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"recovery\": [\n");
  for (std::size_t i = 0; i < recoveries.size(); ++i) {
    const auto& r = recoveries[i];
    std::fprintf(f,
                 "    {\"records\": %zu, \"bytes\": %llu, "
                 "\"recover_s\": %.6f, \"records_per_s\": %.0f}%s\n",
                 r.records, static_cast<unsigned long long>(r.bytes),
                 r.recover_s, r.records_per_s,
                 i + 1 < recoveries.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"kill_and_recover\": {\"devices\": %zu, "
               "\"entries_per_device\": %zu, \"consumed\": %zu, "
               "\"remaining\": %zu, \"reopen_s\": %.6f, "
               "\"remaining_match\": %s, \"byte_stable\": %s},\n",
               kill.devices, kill.entries_per_device, kill.consumed,
               kill.remaining_after_recovery, kill.reopen_s,
               kill.remaining_match ? "true" : "false",
               kill.byte_stable ? "true" : "false");
  std::fprintf(f, "  \"ok\": %s\n", ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("=== Durable store: append throughput, group commit, "
              "recovery (%s) ===\n\n", smoke ? "smoke" : "full");

  // ---- 1. append throughput / group commit -------------------------------
  const std::size_t append_records = smoke ? 500 : 20000;
  std::vector<AppendResult> appends;
  for (const std::size_t payload : {std::size_t{64}, std::size_t{1024}}) {
    for (const std::size_t sync_every : {std::size_t{1}, std::size_t{32}}) {
      appends.push_back(bench_append(append_records, payload, sync_every));
    }
  }
  std::printf("append (%zu records each):\n", append_records);
  std::printf("  %8s %10s %12s %10s %14s\n", "payload", "sync_every",
              "records/s", "MB/s", "mean_append_us");
  for (const auto& a : appends) {
    std::printf("  %8zu %10zu %12.0f %10.2f %14.3f\n", a.payload_bytes,
                a.sync_every, a.records_per_s, a.mb_per_s, a.mean_append_us);
  }

  // ---- 2. recovery time vs log size --------------------------------------
  std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{500, 2000}
            : std::vector<std::size_t>{5000, 50000, 150000};
  std::vector<RecoveryResult> recoveries;
  bool ok = true;
  std::printf("\nrecovery (64-byte records):\n");
  std::printf("  %8s %12s %12s %12s\n", "records", "bytes", "recover_s",
              "records/s");
  for (const auto size : sizes) {
    recoveries.push_back(bench_recovery(size));
    const auto& r = recoveries.back();
    std::printf("  %8zu %12llu %12.6f %12.0f\n", r.records,
                static_cast<unsigned long long>(r.bytes), r.recover_s,
                r.records_per_s);
    if (!r.counts_match) {
      std::printf("FAIL: recovery replayed the wrong record count\n");
      ok = false;
    }
  }

  // ---- 3. end-to-end kill-and-recover ------------------------------------
  const auto kill = bench_store(/*devices=*/smoke ? 2 : 3,
                                /*entries=*/smoke ? 4 : 8,
                                /*consume=*/smoke ? 3 : 10);
  std::printf("\nkill-and-recover: %zu devices x %zu entries, %zu consumed "
              "-> %zu remaining, reopen %.3f ms\n",
              kill.devices, kill.entries_per_device, kill.consumed,
              kill.remaining_after_recovery, 1e3 * kill.reopen_s);
  if (!kill.remaining_match) {
    std::printf("FAIL: recovered remaining() does not match N*count-K\n");
    ok = false;
  }
  if (!kill.byte_stable) {
    std::printf("FAIL: two recoveries serialized differently\n");
    ok = false;
  }

  write_json(smoke, appends, recoveries, kill, ok);
  std::printf("\n[%s] wrote BENCH_store_recovery.json\n", ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}

// Observability subsystem tests: tracer lifecycle and sampling, ring
// overflow accounting, exporter round-trips through the trace reader,
// metric-registry snapshot stability, and the instrumentation contracts
// of the service stack — span parenthood across the pool's worker
// threads, and thread-count invariance of the aggregated metrics.  The
// multi-threaded tests are expected to run clean under -DPUFATT_TSAN=ON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/distributed.hpp"
#include "core/enrollment.hpp"
#include "ecc/reed_muller.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_read.hpp"
#include "service/device_registry.hpp"
#include "service/emulator_cache.hpp"
#include "service/verifier_pool.hpp"

namespace pufatt::obs {
namespace {

using support::Xoshiro256pp;

const ecc::ReedMuller1& code() {
  static const ecc::ReedMuller1 instance(5);
  return instance;
}

// Most tests below assert that spans actually arrive, which requires the
// tracing hooks to be compiled in.  A -DPUFATT_TRACE=OFF tree (the
// build-notrace leg of tools/ci.sh) instead proves everything degrades
// to no-ops — there these tests skip rather than assert on delivery.
#define PUFATT_REQUIRE_COMPILED_TRACING()                         \
  do {                                                            \
    if (!kTraceCompiled) {                                        \
      GTEST_SKIP() << "span delivery requires -DPUFATT_TRACE=ON"; \
    }                                                             \
  } while (0)

// --- Tracer core ------------------------------------------------------------

TEST(Tracer, DisabledTracerYieldsInertSpans) {
  Tracer tracer;
  Span span = tracer.span("root");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
  Span child = span.child("child");
  EXPECT_FALSE(child.active());
  span.note("ignored", 1.0);  // must be a harmless no-op
  span.end();
  EXPECT_TRUE(tracer.records().empty());
}

TEST(Tracer, RecordsParentChildAndNotes) {
  PUFATT_REQUIRE_COMPILED_TRACING();
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span root = tracer.span("root");
    ASSERT_TRUE(root.active());
    root.note("answer", 42.0);
    Span child = root.child("child");
    ASSERT_TRUE(child.active());
    EXPECT_NE(child.id(), root.id());
    child.end();
    // Ending twice must not double-record.
    child.end();
  }
  const auto records = tracer.records();
  ASSERT_EQ(records.size(), 2u);
  // records() sorts by start time: root first.
  EXPECT_STREQ(records[0].name, "root");
  EXPECT_STREQ(records[1].name, "child");
  EXPECT_EQ(records[0].parent, 0u);
  EXPECT_EQ(records[1].parent, records[0].id);
  ASSERT_EQ(records[0].note_count, 1u);
  EXPECT_STREQ(records[0].notes[0].key, "answer");
  EXPECT_EQ(records[0].notes[0].value, 42.0);
  EXPECT_LE(records[0].start_ns, records[1].start_ns);
  EXPECT_GE(records[0].end_ns, records[1].end_ns);
}

TEST(Tracer, HalfSampleRateKeepsEveryOtherRoot) {
  PUFATT_REQUIRE_COMPILED_TRACING();
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_sample_rate(0.5);
  std::size_t sampled_roots = 0;
  std::size_t sampled_children = 0;
  for (int i = 0; i < 10; ++i) {
    Span root = tracer.span("root");
    Span child = root.child("child");
    if (root.active()) ++sampled_roots;
    if (child.active()) ++sampled_children;
  }
  // Counter-based sampling spreads evenly: exactly half, deterministically.
  EXPECT_EQ(sampled_roots, 5u);
  // Children follow their root's fate, never their own coin.
  EXPECT_EQ(sampled_children, sampled_roots);
  EXPECT_EQ(tracer.records().size(), 10u);
}

TEST(Tracer, ZeroSampleRateStillAllowsExplicitParents) {
  PUFATT_REQUIRE_COMPILED_TRACING();
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_sample_rate(0.0);
  EXPECT_FALSE(tracer.span("root").active());
  EXPECT_EQ(tracer.sample_root(), 0u);
  // A caller-provided parent id bypasses root sampling by design.
  EXPECT_TRUE(tracer.span("child", 17).active());
}

TEST(Tracer, RingOverflowDropsAreCounted) {
  PUFATT_REQUIRE_COMPILED_TRACING();
  TraceConfig config;
  config.ring_capacity = 8;
  Tracer tracer(config);
  tracer.set_enabled(true);
  for (int i = 0; i < 20; ++i) tracer.span("s").end();
  // Ring holds capacity-1 records between drains; the rest are counted.
  const auto records = tracer.records();
  EXPECT_EQ(records.size() + tracer.dropped(), 20u);
  EXPECT_GT(tracer.dropped(), 0u);
}

TEST(Tracer, ConcurrentSpansAllArriveExactlyOnce) {
  PUFATT_REQUIRE_COMPILED_TRACING();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 2000;
  TraceConfig config;
  config.ring_capacity = 4096;  // > kPerThread: no drops even if the
  Tracer tracer(config);        // drainer never runs
  tracer.set_enabled(true);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Span span = tracer.span("worker");
        span.note("i", static_cast<double>(i));
      }
    });
  }
  // Drain concurrently with the writers to exercise the SPSC hand-off.
  for (int i = 0; i < 50; ++i) tracer.drain();
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(tracer.records().size(), kThreads * kPerThread);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// --- Exporters and the reader ----------------------------------------------

TEST(TraceExport, JsonlRoundTripsThroughReader) {
  PUFATT_REQUIRE_COMPILED_TRACING();
  Tracer tracer;
  tracer.set_enabled(true);
  Span root = tracer.span("alpha");
  root.note("x", 1.5);
  Span child = root.child("beta \"quoted\"\n");
  child.end();
  root.end();

  const auto spans = read_trace(tracer.to_jsonl());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "alpha");
  EXPECT_EQ(spans[1].name, "beta \"quoted\"\n");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[0].note_or("x", 0.0), 1.5);
  EXPECT_GE(spans[0].dur_us, spans[1].dur_us);
}

TEST(TraceExport, TraceEventRoundTripsThroughReader) {
  PUFATT_REQUIRE_COMPILED_TRACING();
  Tracer tracer;
  tracer.set_enabled(true);
  Span root = tracer.span("alpha");
  root.note("x", 2.5);
  Span child = root.child("beta");
  child.end();
  root.end();

  const std::string json = tracer.to_trace_event();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  const auto spans = read_trace(json);
  ASSERT_EQ(spans.size(), 2u);
  // trace_event timestamps are rebased to the earliest span.
  const auto root_it = std::find_if(
      spans.begin(), spans.end(),
      [](const ParsedSpan& s) { return s.name == "alpha"; });
  ASSERT_NE(root_it, spans.end());
  EXPECT_EQ(root_it->start_us, 0.0);
  EXPECT_EQ(root_it->note_or("x", 0.0), 2.5);
  const auto child_it = std::find_if(
      spans.begin(), spans.end(),
      [](const ParsedSpan& s) { return s.name == "beta"; });
  ASSERT_NE(child_it, spans.end());
  EXPECT_EQ(child_it->parent, root_it->id);
}

TEST(TraceRead, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(parse_json("{} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json("[1, 2"), std::runtime_error);
  EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
}

TEST(TraceRead, ParserHandlesEscapesAndNesting) {
  const auto doc = parse_json(
      "{\"s\":\"a\\\"b\\\\c\\n\",\"n\":-2.5e2,\"arr\":[1,true,null],"
      "\"o\":{\"k\":7}}");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.get("s")->string, "a\"b\\c\n");
  EXPECT_EQ(doc.number_or("n", 0.0), -250.0);
  ASSERT_TRUE(doc.get("arr")->is_array());
  EXPECT_EQ(doc.get("arr")->array.size(), 3u);
  EXPECT_EQ(doc.get("o")->number_or("k", 0.0), 7.0);
}

// --- MetricRegistry ---------------------------------------------------------

TEST(MetricRegistry, SnapshotJsonIsByteStable) {
  MetricRegistry registry;
  registry.counter("b.count").add(2);
  registry.counter("a.count").add(7);
  registry.gauge("depth").set(1.5);
  registry.gauge("depth").set(0.5);  // max sticks at 1.5
  registry.histogram("lat", support::LogScale{100.0, 4.0, 3}).record(150.0);
  EXPECT_EQ(registry.snapshot_json(),
            "{\"counters\":{\"a.count\":7,\"b.count\":2},"
            "\"gauges\":{\"depth\":{\"value\":0.5,\"max\":1.5}},"
            "\"histograms\":{\"lat\":{\"first_edge\":100,\"base\":4,"
            "\"counts\":[0,1,0],\"total\":1}}}");
}

TEST(MetricRegistry, KindMismatchThrowsAndReferencesAreStable) {
  MetricRegistry registry;
  Counter& counter = registry.counter("n");
  counter.add(3);
  EXPECT_THROW(registry.gauge("n"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("n"), std::invalid_argument);
  registry.reset();
  counter.add(1);  // reference survives reset()
  EXPECT_EQ(registry.counter("n").value(), 1u);
}

TEST(MetricRegistry, HistogramScaleMismatchThrows) {
  MetricRegistry registry;
  registry.histogram("h", support::LogScale{100.0, 4.0, 8});
  EXPECT_NO_THROW(registry.histogram("h", support::LogScale{100.0, 4.0, 8}));
  EXPECT_THROW(registry.histogram("h", support::LogScale{100.0, 2.0, 8}),
               std::invalid_argument);
}

TEST(MetricRegistry, LogHistogramQuantileEdges) {
  LogHistogram hist(support::LogScale{100.0, 4.0, 4});
  for (int i = 0; i < 10; ++i) hist.record(50.0);     // bucket 0
  for (int i = 0; i < 10; ++i) hist.record(50000.0);  // above edge 3 -> last
  EXPECT_EQ(hist.total(), 20u);
  EXPECT_EQ(hist.quantile_edge(0.25), 100.0);
  EXPECT_TRUE(std::isinf(hist.quantile_edge(0.99)));
}

// The dedupe regression: the service latency histogram and the shared
// support::LogScale must bucket identically over the whole range.
TEST(MetricRegistry, ServiceLatencyHistogramMatchesSharedScale) {
  const support::LogScale scale = service::LatencyHistogram::scale();
  for (double v = 0.0; v < 3.0e6; v += 997.0) {
    EXPECT_EQ(service::LatencyHistogram::bucket_for(v), scale.bucket_for(v))
        << "at " << v;
  }
  for (std::size_t b = 0; b < service::LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(service::LatencyHistogram::upper_edge_us(b),
              scale.upper_edge(b));
  }
}

// --- Service instrumentation ------------------------------------------------

/// Small enrolled fleet shared by the pool-tracing tests (enrollment is
/// the expensive part; build it once).
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

  service::DeviceRegistry make_registry() const {
    service::DeviceRegistry registry;
    for (const auto& dev : devices) registry.store(dev.id, dev.record);
    return registry;
  }

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
    const auto profile = core::DeviceProfile::small();
    Xoshiro256pp rng(0x0B5);
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

constexpr std::size_t kJobs = 9;

/// Runs kJobs fixed-seed jobs through a traced pool and returns
/// (sorted span records, normalized metrics snapshot json).
std::pair<std::vector<SpanRecord>, std::string> run_traced_pool(
    std::size_t workers, Tracer& tracer) {
  const auto& fleet = Fleet::instance();
  auto registry = fleet.make_registry();
  service::EmulatorCache cache(registry, code(), fleet.devices.size());
  service::PoolConfig config;
  config.workers = workers;
  config.queue_capacity = kJobs;  // roomy: no busy-rejects to count
  config.tracer = &tracer;
  tracer.set_enabled(true);

  service::VerifierPool pool(cache, config);
  for (std::size_t s = 0; s < kJobs; ++s) {
    const std::size_t d = s % fleet.devices.size();
    service::AttestationJob job;
    job.device_id = fleet.devices[d].id;
    job.channel_seed = 0xC0FFEE + 31 * s;
    job.rng_seed = 0xBEEF + 17 * s;
    job.tag = s;
    job.responder = fleet.responder(d, job.rng_seed ^ 0xF00D);
    EXPECT_TRUE(pool.submit(std::move(job)).enqueued())
        << "queue sized for all jobs";
  }
  pool.drain();

  // Verdicts and simulated latencies are scheduling-independent; queue
  // occupancy and cache construction races are not (by design), so the
  // invariance check normalizes them away.
  auto snap = pool.metrics_snapshot();
  snap.queue_depth_hwm = 0;
  MetricRegistry metrics;
  service::publish_metrics(snap, service::CacheCounters{}, metrics);
  pool.shutdown();
  return {tracer.records(), metrics.snapshot_json()};
}

TEST(PoolTracing, SpansNestAcrossWorkerThreads) {
  PUFATT_REQUIRE_COMPILED_TRACING();
  Tracer tracer;
  const auto [records, json] = run_traced_pool(3, tracer);
  (void)json;

  std::map<std::string, std::vector<const SpanRecord*>> by_name;
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const auto& rec : records) {
    by_name[rec.name].push_back(&rec);
    EXPECT_EQ(by_id.count(rec.id), 0u) << "span ids must be unique";
    by_id[rec.id] = &rec;
  }

  ASSERT_EQ(by_name["pool.job"].size(), kJobs);
  ASSERT_EQ(by_name["pool.queue_wait"].size(), kJobs);
  ASSERT_EQ(by_name["pool.verify"].size(), kJobs);
  ASSERT_EQ(by_name["session.run"].size(), kJobs);
  ASSERT_GE(by_name["session.attempt"].size(), kJobs);
  EXPECT_FALSE(by_name["cache.acquire"].empty());

  const auto parent_name = [&](const SpanRecord* rec) -> std::string {
    const auto it = by_id.find(rec->parent);
    return it != by_id.end() ? it->second->name : "<missing>";
  };
  for (const auto* rec : by_name["pool.job"]) EXPECT_EQ(rec->parent, 0u);
  for (const auto* rec : by_name["pool.queue_wait"]) {
    EXPECT_EQ(parent_name(rec), "pool.job");
  }
  for (const auto* rec : by_name["pool.verify"]) {
    EXPECT_EQ(parent_name(rec), "pool.job");
    // The job root's interval covers its verify child even though the two
    // records were assembled on different threads.
    const auto* job = by_id.at(rec->parent);
    EXPECT_LE(job->start_ns, rec->start_ns);
    EXPECT_GE(job->end_ns, rec->end_ns);
  }
  for (const auto* rec : by_name["session.run"]) {
    EXPECT_EQ(parent_name(rec), "pool.verify");
  }
  for (const auto* rec : by_name["session.attempt"]) {
    EXPECT_EQ(parent_name(rec), "session.run");
  }
  for (const auto* rec : by_name["cache.acquire"]) {
    EXPECT_EQ(parent_name(rec), "pool.verify");
  }
}

TEST(PoolTracing, MetricsAndSpanNamesAreThreadCountInvariant) {
  std::map<std::string, std::size_t> baseline_names;
  std::string baseline_json;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    Tracer tracer;
    const auto [records, json] = run_traced_pool(workers, tracer);
    // Span-name multiset, minus the cache spans: how often two workers
    // race to build the same device's emulator is scheduling luck.
    std::map<std::string, std::size_t> names;
    for (const auto& rec : records) {
      const std::string name = rec.name;
      if (name.rfind("cache.", 0) != 0) ++names[name];
    }
    if (baseline_json.empty()) {
      baseline_names = names;
      baseline_json = json;
      continue;
    }
    EXPECT_EQ(names, baseline_names) << "workers=" << workers;
    EXPECT_EQ(json, baseline_json) << "workers=" << workers;
  }
}

TEST(GlobalTracing, SimulatorHooksRecordUnderGlobalTracer) {
  PUFATT_REQUIRE_COMPILED_TRACING();
  const auto& fleet = Fleet::instance();
  auto& tracer = global_tracer();
  tracer.clear();
  global_registry().reset();
  set_global_trace(true, 1.0);

  const auto env = variation::Environment::nominal();
  Xoshiro256pp rng(0x51D);
  std::uint64_t challenges[16];
  for (auto& c : challenges) c = rng.next();
  // 16 obfuscated queries expand to 128 raw races on the bit-sliced engine.
  (void)fleet.devices[0].device->query_batch(challenges, 16, env, rng);
  set_global_trace(false);

  EXPECT_GT(global_registry().counter("sim.batches").value(), 0u);
  EXPECT_GT(global_registry().counter("sim.lanes").value(), 0u);
  EXPECT_GT(global_registry().gauge("sim.batch_occupancy").max(), 0.0);

  std::set<std::string> names;
  for (const auto& rec : tracer.records()) names.insert(rec.name);
  EXPECT_EQ(names.count("puf.eval_batch"), 1u);
  EXPECT_EQ(names.count("puf.sample_delays"), 1u);
  EXPECT_EQ(names.count("puf.arbiter"), 1u);
  EXPECT_EQ(names.count("sim.run_bitslice"), 1u);
  tracer.clear();
}

}  // namespace
}  // namespace pufatt::obs

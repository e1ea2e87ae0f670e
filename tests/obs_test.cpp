// Tests for the observability layer: registry concurrency, snapshot merge
// semantics, JSONL/trace output schemas, profiler hierarchy, and the
// determinism contract (instrumentation must never change a result bit).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pra.hpp"
#include "core/subspace.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "swarming/dsa_model.hpp"

namespace {

using namespace dsa;

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::filesystem::path temp_file(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

// --- Registry -------------------------------------------------------------

TEST(ObsRegistry, CounterHandleIsIdempotentAndCounts) {
  obs::Registry registry;
  const obs::Counter a = registry.counter("events");
  const obs::Counter b = registry.counter("events");
  a.add(3);
  b.increment();
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("events"), 4u);
  EXPECT_EQ(snap.counter_value("missing"), 0u);
}

TEST(ObsRegistry, DefaultConstructedHandlesNoOp) {
  const obs::Counter counter;
  const obs::Gauge gauge;
  const obs::Distribution distribution;
  counter.add(7);
  gauge.set(1.0);
  distribution.observe(2.0);  // must not crash; nothing to assert beyond that
}

TEST(ObsRegistry, ConcurrentAddsFromManyThreadsMatchSerialTotal) {
  obs::Registry registry;
  const obs::Counter counter = registry.counter("hits");
  const obs::Distribution distribution = registry.distribution("lat");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  constexpr auto kTotal =
      static_cast<std::uint64_t>(kThreads) * kAddsPerThread;
  obs::set_enabled(true);  // distributions record only when obs is on
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter, &distribution] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        counter.increment();
        distribution.observe(0.5);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  obs::set_enabled(false);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("hits"), kTotal);
  ASSERT_EQ(snap.distributions.size(), 1u);
  // Compiled out (DSA_TRACE=OFF), the switch stays off and nothing lands.
  const std::uint64_t expected = DSA_OBS_COMPILED_IN ? kTotal : 0;
  EXPECT_EQ(snap.distributions[0].count(), expected);
  EXPECT_DOUBLE_EQ(snap.distributions[0].sum,
                   0.5 * static_cast<double>(expected));
}

TEST(ObsRegistry, SnapshotMergesShardsWrittenByExitedThreads) {
  obs::Registry registry;
  const obs::Counter counter = registry.counter("work");
  std::thread([&counter] { counter.add(5); }).join();
  std::thread([&counter] { counter.add(7); }).join();
  counter.add(1);
  EXPECT_EQ(registry.snapshot().counter_value("work"), 13u);
}

TEST(ObsRegistry, GaugeIsLastWriteWinsAndAddAccumulates) {
  obs::Registry registry;
  const obs::Gauge rate = registry.gauge("rate");
  rate.set(2.0);
  rate.set(9.5);
  const obs::Gauge total = registry.gauge("total_kb");
  total.add(1.25);
  total.add(2.25);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauge_value("rate"), 9.5);
  EXPECT_DOUBLE_EQ(snap.gauge_value("total_kb"), 3.5);
}

TEST(ObsRegistry, ResetZeroesValuesButKeepsDefinitions) {
  obs::Registry registry;
  const obs::Counter counter = registry.counter("n");
  counter.add(4);
  registry.reset();
  EXPECT_EQ(registry.snapshot().counter_value("n"), 0u);
  counter.add(2);
  EXPECT_EQ(registry.snapshot().counter_value("n"), 2u);
}

// --- JSONL snapshot -------------------------------------------------------

TEST(ObsSnapshot, JsonlHasOneTypedObjectPerLine) {
  obs::Registry registry;
  registry.counter("c").add(2);
  registry.gauge("g").set(1.5);
  registry.distribution("d");
  const std::string jsonl = registry.snapshot().to_jsonl();

  std::istringstream lines(jsonl);
  std::string line;
  std::vector<std::string> seen;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\":"), std::string::npos);
    EXPECT_NE(line.find("\"name\":"), std::string::npos);
    seen.push_back(line);
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_NE(seen[0].find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(seen[0].find("\"value\":2"), std::string::npos);
  EXPECT_NE(seen[1].find("\"type\":\"gauge\""), std::string::npos);
  // An empty distribution still exports its line, every field zero.
  EXPECT_EQ(seen[2],
            "{\"type\":\"distribution\",\"name\":\"d\",\"count\":0,\"p50\":0,"
            "\"p90\":0,\"p99\":0,\"min\":0,\"max\":0,\"mean\":0,\"stddev\":0}");
}

TEST(ObsSnapshot, SaveJsonlWritesAtomically) {
  obs::Registry registry;
  registry.counter("c").increment();
  const std::filesystem::path path = temp_file("dsa_obs_snapshot.jsonl");
  registry.snapshot().save_jsonl(path);
  EXPECT_EQ(slurp(path), registry.snapshot().to_jsonl());
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  EXPECT_FALSE(std::filesystem::exists(tmp));
  std::filesystem::remove(path);
}

#if DSA_OBS_COMPILED_IN

// --- Profiler + trace (these toggle the process-global enabled flag) ------

/// Restores the global obs state so test order never matters.
struct ObsStateGuard {
  ~ObsStateGuard() {
    obs::TraceSink::global().stop_and_write();
    obs::set_enabled(false);
    obs::Profiler::global().reset();
  }
};

TEST(ObsProfiler, NestedPhasesAggregateUnderHierarchicalPaths) {
  ObsStateGuard guard;
  obs::Profiler::global().reset();
  obs::set_enabled(true);
  {
    DSA_OBS_PHASE("outer");
    { DSA_OBS_PHASE("inner"); }
    { DSA_OBS_PHASE("inner"); }
  }
  const obs::PhaseReport report = obs::Profiler::global().report();
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].path, "outer");
  EXPECT_EQ(report[0].count, 1u);
  EXPECT_EQ(report[1].path, "outer/inner");
  EXPECT_EQ(report[1].count, 2u);
  EXPECT_GE(report[0].total_ms, report[1].total_ms);
  EXPECT_NE(obs::Profiler::global().report_text().find("outer/inner"),
            std::string::npos);
}

TEST(ObsProfiler, DisabledPhasesRecordNothing) {
  ObsStateGuard guard;
  obs::Profiler::global().reset();
  obs::set_enabled(false);
  { DSA_OBS_PHASE("ghost"); }
  EXPECT_TRUE(obs::Profiler::global().report().empty());
}

TEST(ObsTrace, CaptureWritesWellFormedChromeTraceJson) {
  ObsStateGuard guard;
  const std::filesystem::path path = temp_file("dsa_obs_trace.json");
  obs::TraceSink::global().start(path);
  EXPECT_TRUE(obs::TraceSink::global().active());
  {
    DSA_OBS_PHASE("alpha");
    { DSA_OBS_PHASE("beta"); }
  }
  obs::TraceSink::global().instant("marker");
  const std::size_t events = obs::TraceSink::global().stop_and_write();
  EXPECT_FALSE(obs::TraceSink::global().active());
  // Two slices + one instant (the process_name metadata event rides along
  // in the file but is not counted).
  EXPECT_EQ(events, 3u);

  const std::string json = slurp(path);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alpha/beta\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"marker\""), std::string::npos);
  // Balanced braces/brackets and no trailing comma before the closers —
  // the failure modes that make chrome://tracing reject a file.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.find(",]"), std::string::npos);
  EXPECT_EQ(json.find(",}"), std::string::npos);
  std::filesystem::remove(path);
}

// --- Determinism contract -------------------------------------------------

// The whole point of the obs layer: running the same sweep with metrics,
// phases, and tracing all active must produce bitwise-identical numbers to
// running it with observability off. Uses a strided protocol subset so the
// comparison spans the design space, and 2 worker threads so the sharded
// write path is actually exercised.
TEST(ObsDeterminism, SweepIsBitwiseIdenticalWithTracingOnAndOff) {
  swarming::SimulationConfig sim;
  sim.rounds = 24;
  const swarming::SwarmingModel model(
      sim, swarming::BandwidthDistribution::piatek());
  const core::SubspaceModel subset(model, {0u, 811u, 1622u, 2433u, 3244u});
  core::PraConfig config;
  config.population = 12;
  config.performance_runs = 2;
  config.encounter_runs = 1;
  config.opponent_sample = 2;
  config.seed = 4242;
  config.threads = 2;

  obs::set_enabled(false);
  const core::PraScores baseline = core::PraEngine(subset, config).run();

  const std::filesystem::path path = temp_file("dsa_obs_determinism.json");
  core::PraScores traced;
  {
    ObsStateGuard guard;
    obs::TraceSink::global().start(path);
    traced = core::PraEngine(subset, config).run();
  }
  std::filesystem::remove(path);

  const auto expect_bitwise = [](const std::vector<double>& a,
                                 const std::vector<double>& b,
                                 const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                std::bit_cast<std::uint64_t>(b[i]))
          << what << "[" << i << "]";
    }
  };
  expect_bitwise(baseline.raw_performance, traced.raw_performance,
                 "raw_performance");
  expect_bitwise(baseline.performance, traced.performance, "performance");
  expect_bitwise(baseline.robustness, traced.robustness, "robustness");
  expect_bitwise(baseline.aggressiveness, traced.aggressiveness,
                 "aggressiveness");
}

#endif  // DSA_OBS_COMPILED_IN

}  // namespace

// Tests for the observability layer: registry concurrency, snapshot merge
// semantics, JSONL/trace output schemas, trace slice nesting, and the
// determinism contract (instrumentation must never change a result bit).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pra.hpp"
#include "core/subspace.hpp"
#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "swarming/bandwidth.hpp"
#include "swarming/dsa_model.hpp"
#include "swarming/simulator.hpp"

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
  EXPECT_EQ(snap.distributions[0].count(), kTotal);
  EXPECT_DOUBLE_EQ(snap.distributions[0].sum,
                   0.5 * static_cast<double>(kTotal));
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

// --- The DSA_OBS switch ---------------------------------------------------

/// The message Config::parse throws for `spec` ("" when it parses).
std::string parse_error(const char* spec) {
  try {
    (void)obs::Config::parse(spec);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(ObsConfig, ParsesDefaultsAndEveryTokenAndRoundTrips) {
  unsetenv("DSA_OBS");
  EXPECT_EQ(obs::Config::from_environment().spec(), "dir=results");
  setenv("DSA_OBS", "", 1);
  const obs::Config off = obs::Config::from_environment();
  EXPECT_FALSE(off.metrics || off.status || off.prof || off.trace);
  EXPECT_EQ(off.record, obs::RecordLevel::kOff);
  EXPECT_EQ(off.dir, std::filesystem::path("results"));
  setenv("DSA_OBS", "dir=/tmp/o,record=full,trace,prof,status,metrics", 1);
  const obs::Config all = obs::Config::from_environment();
  unsetenv("DSA_OBS");
  EXPECT_TRUE(all.metrics && all.status && all.prof && all.trace);
  EXPECT_EQ(all.record, obs::RecordLevel::kFull);
  EXPECT_EQ(all.dir, std::filesystem::path("/tmp/o"));
  EXPECT_EQ(obs::Config::parse("record").record, obs::RecordLevel::kRounds);
  EXPECT_EQ(obs::Config::parse("record=rounds").record,
            obs::RecordLevel::kRounds);
  EXPECT_EQ(obs::Config::parse("dir=d,record,metrics").spec(),
            "metrics,record,dir=d");
  for (const char* spec : {"metrics,status,prof,trace,record=full,dir=/x",
                           "record,dir=results", "trace,dir=a b"}) {
    EXPECT_EQ(obs::Config::parse(spec).spec(), spec);
  }
}

TEST(ObsConfig, RejectsUnknownRepeatedAndEmptyTokensByName) {
  for (const auto& [spec, named, why] :
       std::vector<std::array<const char*, 3>>{
           {"metrics,bogus", "'bogus'", "invalid"},
           {"METRICS", "'METRICS'", "invalid"},
           {"record=off", "'record=off'", "invalid"},
           {"dir=", "'dir='", "invalid"},
           {"metrics status", "'metrics status'", "invalid"},
           {"metrics,metrics", "'metrics'", "repeated"},
           {"record,record=full", "'record=full'", "repeated"},
           {"dir=a,prof,dir=b", "'dir=b'", "repeated"},
           {"metrics,,status", "'metrics,,status'", "empty token"},
           {",metrics", "',metrics'", "empty token"},
           {"metrics,", "'metrics,'", "empty token"}}) {
    const std::string error = parse_error(spec);
    EXPECT_EQ(error.rfind("DSA_OBS", 0), 0u) << spec << ": " << error;
    EXPECT_NE(error.find(named), std::string::npos) << spec << ": " << error;
    EXPECT_NE(error.find(why), std::string::npos) << spec << ": " << error;
  }
}

TEST(ObsConfig, RejectsEachRemovedVariableByName) {
  // Set to anything (even empty, even beside a valid DSA_OBS), each of the
  // eleven variables DSA_OBS replaced fails naming itself and its token.
  setenv("DSA_OBS", "metrics", 1);
  using Removed = std::pair<const char*, const char*>;
  for (const auto& [name, use] : std::vector<Removed>{
           {"DSA_METRICS", "metrics"},
           {"DSA_METRICS_DIR", "metrics,dir=PATH"},
           {"DSA_STATUS", "status"},
           {"DSA_STATUS_INTERVAL_MS", "status"},
           {"DSA_STATUS_DIR", "status,dir=PATH"},
           {"DSA_PROF", "prof"},
           {"DSA_PROF_HZ", "prof"},
           {"DSA_PROF_OUT", "prof,dir=PATH"},
           {"DSA_RECORD", "record"},
           {"DSA_RECORD_STRIDE", "record"},
           {"DSA_RECORD_OUT", "record,dir=PATH"}}) {
    for (const char* value : {"on", ""}) {
      setenv(name, value, 1);
      try {
        (void)obs::Config::from_environment();
        ADD_FAILURE() << name << "='" << value << "' was accepted";
      } catch (const std::runtime_error& error) {
        EXPECT_EQ(std::string(error.what())
                      .rfind(std::string(name) +
                                 " is no longer read; use DSA_OBS=" + use,
                             0),
                  0u)
            << error.what();
      }
      unsetenv(name);
    }
  }
  EXPECT_TRUE(obs::Config::from_environment().metrics);
  unsetenv("DSA_OBS");
}

TEST(ObsConfig, SessionWritesOneArtifactPerLayerAndChangesNoResult) {
  const std::filesystem::path dir = temp_file("dsa_obs_session");
  std::filesystem::remove_all(dir);
  const auto bandwidths = swarming::BandwidthDistribution::piatek();
  const std::vector<swarming::ProtocolSpec> protocols(
      12, swarming::bittorrent_protocol());
  const std::vector<double> capacities =
      bandwidths.stratified_sample(protocols.size());
  swarming::SimulationConfig sim;
  sim.rounds = 30;
  const auto run = [&] {
    return swarming::simulate_rounds(protocols, capacities, sim, &bandwidths)
        .peer_throughput;
  };
  const std::vector<double> dark = run();
  std::vector<double> observed;
  {
    obs::Session session(
        obs::Config::parse("metrics,status,prof,trace,record,dir=" +
                           dir.string()),
        "demo run");
    obs::Telemetry::global().begin_run({.name = "demo"}).finish(true);
    observed = run();
  }
  EXPECT_FALSE(obs::enabled() || obs::Telemetry::global().enabled() ||
               obs::TraceSink::global().active());
  EXPECT_EQ(obs::Recorder::global().level(), obs::RecordLevel::kOff);
  ASSERT_EQ(dark.size(), observed.size());
  EXPECT_EQ(std::memcmp(dark.data(), observed.data(),
                        dark.size() * sizeof(double)),
            0);
  for (const char* file :
       {"METRICS_demo_run.jsonl", "TRACE_demo_run.json",
        "PROF_demo_run.folded", "RECORD_demo_run.jsonl", "demo.status.json",
        "STATUS_demo.timeseries.jsonl"}) {
    EXPECT_TRUE(std::filesystem::exists(dir / file)) << file;
  }
  // The session's (sanitized) name is the recording's context tag.
  EXPECT_NE(slurp(dir / "RECORD_demo_run.jsonl").find("\"demo_run\""),
            std::string::npos);
  obs::Recorder::global().reset();
  std::filesystem::remove_all(dir);
}

// --- Trace (toggles the process-global enabled flag) ---------------------

/// Restores the global obs state so test order never matters.
struct ObsStateGuard {
  ~ObsStateGuard() {
    obs::TraceSink::global().stop_and_write();
    obs::set_enabled(false);
  }
};

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

}  // namespace

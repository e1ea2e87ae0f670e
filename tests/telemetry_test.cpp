// Tests for src/obs/telemetry: heartbeat + time-series schemas, the
// sampler lifecycle (configure/begin_run/finish races), staleness
// classification as `dsa_cli top`/`status` see it, and the determinism
// contract — telemetry on vs off, at any thread count, must never change
// a result bit.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
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
#include "obs/telemetry.hpp"
#include "scenario/plan.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "swarm/swarm_sim.hpp"
#include "swarming/dsa_model.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace fs = std::filesystem;
using namespace dsa;

// Interval long enough that the background thread never fires during a
// test: every sample in these tests is driven explicitly via sample_now()
// or finish(), keeping the file assertions race-free.
constexpr std::uint32_t kNeverFires = 3'600'000;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<util::json::Value> read_jsonl(const fs::path& path) {
  std::ifstream in(path);
  std::vector<util::json::Value> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(util::json::parse(line, path.string()));
  }
  return lines;
}

// Restores the global telemetry/obs state a test flips on, so cases stay
// order-independent when the whole binary runs as one suite.
struct GlobalTelemetryGuard {
  ~GlobalTelemetryGuard() {
    obs::Telemetry::global().configure(obs::TelemetryOptions{});
    obs::set_enabled(false);
  }
};

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("dsa_telemetry_test_" + std::string(info->name()) + "_" +
            std::to_string(static_cast<long long>(::getpid())));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  obs::TelemetryOptions enabled_options(
      std::uint32_t interval_ms = kNeverFires) const {
    obs::TelemetryOptions options;
    options.enabled = true;
    options.interval_ms = interval_ms;
    options.dir = dir_;
    return options;
  }

  fs::path dir_;
};

// --- options / env parsing -------------------------------------------------

TEST(TelemetryOptions, EnvironmentDefaultsAreOff) {
  unsetenv("DSA_STATUS");
  unsetenv("DSA_STATUS_INTERVAL_MS");
  unsetenv("DSA_STATUS_DIR");
  const obs::TelemetryOptions options =
      obs::TelemetryOptions::from_environment();
  EXPECT_FALSE(options.enabled);
  EXPECT_EQ(options.interval_ms, 1000u);
  EXPECT_EQ(options.dir, fs::path("results"));
}

TEST(TelemetryOptions, EnvironmentParsesStrictly) {
  setenv("DSA_STATUS", "on", 1);
  setenv("DSA_STATUS_INTERVAL_MS", "250", 1);
  setenv("DSA_STATUS_DIR", "/tmp/dsa_status", 1);
  const obs::TelemetryOptions options =
      obs::TelemetryOptions::from_environment();
  EXPECT_TRUE(options.enabled);
  EXPECT_EQ(options.interval_ms, 250u);
  EXPECT_EQ(options.dir, fs::path("/tmp/dsa_status"));

  // Errors name the variable and the offending value, like every DSA_* knob.
  setenv("DSA_STATUS", "maybe", 1);
  try {
    (void)obs::TelemetryOptions::from_environment();
    FAIL() << "expected a strict-parse error";
  } catch (const std::exception& error) {
    EXPECT_NE(std::string(error.what()).find("DSA_STATUS"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("maybe"), std::string::npos);
  }
  setenv("DSA_STATUS", "on", 1);
  setenv("DSA_STATUS_INTERVAL_MS", "0", 1);
  EXPECT_THROW((void)obs::TelemetryOptions::from_environment(),
               std::runtime_error);
  setenv("DSA_STATUS_INTERVAL_MS", "junk", 1);
  EXPECT_THROW((void)obs::TelemetryOptions::from_environment(),
               std::runtime_error);

  unsetenv("DSA_STATUS");
  unsetenv("DSA_STATUS_INTERVAL_MS");
  unsetenv("DSA_STATUS_DIR");
}

TEST(TelemetryNames, SanitizeRunName) {
  EXPECT_EQ(obs::sanitize_run_name("pra_results.csv"), "pra_results.csv");
  EXPECT_EQ(obs::sanitize_run_name("a b/c:d"), "a_b_c_d");
  EXPECT_EQ(obs::sanitize_run_name(""), "run");
  EXPECT_EQ(obs::sanitize_run_name("A-Z_0.9"), "A-Z_0.9");
}

// --- heartbeat / time-series schemas ---------------------------------------

TEST_F(TelemetryTest, HeartbeatSchemaRoundTrips) {
  obs::Telemetry telemetry;
  telemetry.configure(enabled_options());

  obs::RunInfo info;
  info.name = "demo";
  info.kind = "sweep";
  info.spec_fingerprint = 0xabcdef0123456789ull;
  info.jobs_total = 10;
  info.output = "results/demo.csv";
  obs::TelemetryRun run = telemetry.begin_run(info);
  ASSERT_TRUE(run.active());

  // begin_run writes the bootstrap heartbeat immediately (seq 0).
  const fs::path heartbeat = dir_ / "demo.status.json";
  ASSERT_TRUE(fs::exists(heartbeat));
  obs::StatusFile status = obs::load_status_file(heartbeat);
  EXPECT_EQ(status.schema, 1);
  EXPECT_EQ(status.name, "demo");
  EXPECT_EQ(status.kind, "sweep");
  EXPECT_EQ(status.state, "running");
  EXPECT_EQ(status.spec_fp, "abcdef0123456789");
  EXPECT_EQ(status.pid, static_cast<std::int64_t>(::getpid()));
  EXPECT_EQ(status.total, 10u);
  EXPECT_EQ(status.output, "results/demo.csv");
  EXPECT_EQ(status.interval_ms, kNeverFires);

  run.set_phase("crunch");
  run.add_done(3);
  run.add_failed(1);
  run.init_shards({"s0", "s1", "s2"});
  run.set_shard_state(0, obs::ShardState::kDone);
  run.set_shard_state(1, obs::ShardState::kRunning);
  run.set_last_error("shard s1 wobbled");
  telemetry.sample_now();

  status = obs::load_status_file(heartbeat);
  EXPECT_EQ(status.state, "running");
  EXPECT_EQ(status.phase, "crunch");
  EXPECT_EQ(status.done, 3u);
  EXPECT_EQ(status.failed, 1u);
  EXPECT_EQ(status.last_error, "shard s1 wobbled");
  EXPECT_GE(status.seq, 1u);
  EXPECT_GT(status.timestamp_unix_ms, 0);
  ASSERT_EQ(status.shards.size(), 3u);
  EXPECT_EQ(status.shards[0].first, "s0");
  EXPECT_EQ(status.shards[0].second, "done");
  EXPECT_EQ(status.shards[1].second, "running");
  EXPECT_EQ(status.shards[2].second, "todo");
  EXPECT_EQ(status.shard_counts.at("done"), 1u);
  EXPECT_EQ(status.shard_counts.at("running"), 1u);
  EXPECT_EQ(status.shard_counts.at("todo"), 1u);
#if defined(__linux__)
  EXPECT_GT(status.rss_kb, 0u);  // /proc/self/status is available
#endif

  run.update_done(7);   // CAS-max: raises
  run.update_done(5);   // ...and never lowers
  run.finish(true);
  status = obs::load_status_file(heartbeat);
  EXPECT_EQ(status.state, "done");
  EXPECT_EQ(status.done, 7u);
  EXPECT_EQ(status.eta_sec, 0.0);
}

TEST_F(TelemetryTest, TimeseriesAppendsWithMonotoneSeq) {
  obs::Telemetry telemetry;
  telemetry.configure(enabled_options());
  obs::TelemetryRun run =
      telemetry.begin_run({.name = "series", .kind = "test"});
  ASSERT_TRUE(run.active());

  run.add_done(1);
  telemetry.sample_now();
  run.add_done(1);
  telemetry.sample_now();
  run.finish(true);

  const fs::path series = dir_ / "STATUS_series.timeseries.jsonl";
  ASSERT_TRUE(fs::exists(series));
  const std::vector<util::json::Value> lines = read_jsonl(series);
  ASSERT_GE(lines.size(), 3u);  // two explicit samples + the final one
  std::uint64_t last_seq = 0;
  for (const util::json::Value& line : lines) {
    ASSERT_EQ(line.find("type")->text, "telemetry");
    EXPECT_EQ(line.find("schema")->number, 1.0);
    EXPECT_EQ(line.find("name")->text, "series");
    const auto seq =
        static_cast<std::uint64_t>(line.find("seq")->number);
    EXPECT_GT(seq, last_seq);  // strictly increasing, never repeats
    last_seq = seq;
    ASSERT_NE(line.find("jobs_done"), nullptr);
    ASSERT_NE(line.find("timestamp_unix_ms"), nullptr);
    ASSERT_NE(line.find("counters_delta"), nullptr);
  }

  // A later run with the same name appends — the series spans restarts.
  obs::TelemetryRun second =
      telemetry.begin_run({.name = "series", .kind = "test"});
  second.finish(true);
  EXPECT_GT(read_jsonl(series).size(), lines.size());
}

#if DSA_OBS_COMPILED_IN
TEST_F(TelemetryTest, TimeseriesCountersAreDeltasNotTotals) {
  obs::Telemetry telemetry;
  telemetry.configure(enabled_options());
  const obs::Counter ticks =
      obs::Registry::global().counter("telemetry_test.ticks");

  // Pollute the counter BEFORE the run starts: the bootstrap sample must
  // absorb it so the first emitted delta covers only the run itself.
  ticks.add(1000);
  obs::TelemetryRun run =
      telemetry.begin_run({.name = "deltas", .kind = "test"});
  ticks.add(7);
  telemetry.sample_now();
  ticks.add(5);
  run.finish(true);

  const std::vector<util::json::Value> lines =
      read_jsonl(dir_ / "STATUS_deltas.timeseries.jsonl");
  ASSERT_GE(lines.size(), 2u);
  const util::json::Value* first =
      lines[0].find("counters_delta")->find("telemetry_test.ticks");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->number, 7.0);
  const util::json::Value* final_delta =
      lines.back().find("counters_delta")->find("telemetry_test.ticks");
  ASSERT_NE(final_delta, nullptr);
  EXPECT_EQ(final_delta->number, 5.0);
}
#endif  // DSA_OBS_COMPILED_IN

TEST_F(TelemetryTest, FailedRunsAndErrorsReachTheHeartbeat) {
  obs::Telemetry telemetry;
  telemetry.configure(enabled_options());
  obs::TelemetryRun run =
      telemetry.begin_run({.name = "boom", .kind = "test", .jobs_total = 2});
  run.add_done(1);
  run.add_failed(1);
  run.set_last_error("job 1 exploded");
  run.finish(false);

  const obs::StatusFile status =
      obs::load_status_file(dir_ / "boom.status.json");
  EXPECT_EQ(status.state, "failed");
  EXPECT_EQ(status.failed, 1u);
  EXPECT_EQ(status.last_error, "job 1 exploded");
  EXPECT_EQ(obs::classify_status(status), obs::RunHealth::kFailed);
}

TEST_F(TelemetryTest, DisabledTelemetryIsInertAndWritesNothing) {
  obs::Telemetry telemetry;  // never configured: disabled
  obs::TelemetryRun run =
      telemetry.begin_run({.name = "ghost", .kind = "test"});
  EXPECT_FALSE(run.active());
  run.set_phase("x");
  run.add_done(5);
  run.init_shards({"a"});
  run.set_shard_state(0, obs::ShardState::kDone);
  run.finish(true);
  telemetry.sample_now();
  EXPECT_FALSE(fs::exists(dir_ / "ghost.status.json"));
  EXPECT_TRUE(fs::is_empty(dir_));
}

// --- staleness classification ----------------------------------------------

TEST(TelemetryHealth, ClassifiesRunningStalledDeadDoneFailed) {
  obs::StatusFile status;
  status.state = "running";
  status.interval_ms = 100;
  status.timestamp_unix_ms = 1'000'000;
  status.pid = 1234;

  // Fresh heartbeat + live pid.
  EXPECT_EQ(obs::classify_status(status, 1'000'150, true),
            obs::RunHealth::kRunning);
  // Exactly 3 intervals old is still within budget; beyond it stalls.
  EXPECT_EQ(obs::classify_status(status, 1'000'300, true),
            obs::RunHealth::kRunning);
  EXPECT_EQ(obs::classify_status(status, 1'000'301, true),
            obs::RunHealth::kStalled);
  // A dead pid trumps heartbeat age (SIGKILL leaves a fresh-looking file).
  EXPECT_EQ(obs::classify_status(status, 1'000'050, false),
            obs::RunHealth::kDead);
  // Terminal states classify by the recorded state, dead pid or not.
  status.state = "done";
  EXPECT_EQ(obs::classify_status(status, 9'999'999, false),
            obs::RunHealth::kDone);
  status.state = "failed";
  EXPECT_EQ(obs::classify_status(status, 1'000'050, true),
            obs::RunHealth::kFailed);
}

TEST(TelemetryHealth, PidAliveProbe) {
  EXPECT_TRUE(obs::pid_alive(static_cast<std::int64_t>(::getpid())));
  EXPECT_FALSE(obs::pid_alive(0));
  EXPECT_FALSE(obs::pid_alive(-1));
  // Far above any real pid_max, so the probe reports ESRCH.
  EXPECT_FALSE(obs::pid_alive(0x7ffffff0));
}

TEST_F(TelemetryTest, FindStatusFilesScansDirectoriesAndAcceptsFiles) {
  const auto touch = [&](const char* name) {
    std::ofstream(dir_ / name) << "{}";
  };
  touch("b.status.json");
  touch("a.status.json");
  touch("unrelated.json");
  touch("STATUS_a.timeseries.jsonl");

  const std::vector<fs::path> found = obs::find_status_files(dir_);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].filename(), "a.status.json");  // sorted by filename
  EXPECT_EQ(found[1].filename(), "b.status.json");

  const std::vector<fs::path> single =
      obs::find_status_files(dir_ / "a.status.json");
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], dir_ / "a.status.json");

  EXPECT_TRUE(obs::find_status_files(dir_ / "missing").empty());
}

// --- lifecycle stress -------------------------------------------------------

// configure() start/stops the sampler thread while other threads register
// runs, push progress, and force samples. Nothing to assert beyond "no
// crash, no deadlock, files stay parseable" — TSan/ASan builds give this
// test its teeth.
TEST_F(TelemetryTest, ConfigureAndRunRegistrationRaceIsSafe) {
  obs::Telemetry telemetry;
  std::vector<std::thread> threads;
  // Disabled options must still point at the test dir: finish_run's
  // terminal heartbeat is unconditional, so a default-constructed dir
  // ("results") would leak race*.status.json into the working tree.
  obs::TelemetryOptions disabled;
  disabled.dir = dir_;
  threads.emplace_back([&] {
    for (int i = 0; i < 60; ++i) {
      telemetry.configure(enabled_options(1));
      telemetry.configure(disabled);
    }
    telemetry.configure(enabled_options(1));
  });
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        obs::TelemetryRun run = telemetry.begin_run(
            {.name = "race" + std::to_string(t), .kind = "stress",
             .jobs_total = 4});
        run.set_phase("spin");
        run.add_done(1);
        telemetry.sample_now();
        run.finish(i % 2 == 0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Whatever interleaving happened, every run that ever wrote a heartbeat
  // also finished, and finish_run's terminal write is unconditional (it does
  // not consult the enabled flag, and the periodic pass never deregisters a
  // run out from under it). So no file may be left saying "running" —
  // regression cover for the sampler pruning a run in the window between
  // `finished` flipping and finish_run taking the core mutex, which
  // swallowed the final done/failed heartbeat.
  for (const fs::path& path : obs::find_status_files(dir_)) {
    const obs::StatusFile status = obs::load_status_file(path);
    EXPECT_TRUE(status.state == "done" || status.state == "failed")
        << path << " state=" << status.state;
  }

  // And the sampler still works after the storm: a controlled run on the
  // re-enabled instance finishes with a terminal heartbeat.
  telemetry.configure(enabled_options());
  obs::TelemetryRun last =
      telemetry.begin_run({.name = "race0", .kind = "stress"});
  last.finish(true);
  EXPECT_EQ(obs::load_status_file(dir_ / "race0.status.json").state, "done");
  telemetry.configure(obs::TelemetryOptions{});
}

// --- determinism contract ---------------------------------------------------

core::PraScores tiny_pra(std::size_t threads) {
  swarming::SimulationConfig sim;
  sim.rounds = 24;
  const swarming::SwarmingModel model(
      sim, swarming::BandwidthDistribution::piatek());
  const core::SubspaceModel subset(model, {0u, 811u, 1622u, 2433u});
  core::PraConfig config;
  config.population = 12;
  config.performance_runs = 2;
  config.encounter_runs = 1;
  config.opponent_sample = 2;
  config.seed = 4242;
  config.threads = threads;
  return core::PraEngine(subset, config).run();
}

void expect_bitwise(const std::vector<double>& a,
                    const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << "[" << i << "]";
  }
}

void expect_scores_bitwise(const core::PraScores& a,
                           const core::PraScores& b) {
  expect_bitwise(a.raw_performance, b.raw_performance, "raw_performance");
  expect_bitwise(a.performance, b.performance, "performance");
  expect_bitwise(a.robustness, b.robustness, "robustness");
  expect_bitwise(a.aggressiveness, b.aggressiveness, "aggressiveness");
}

// The global sampler fires every millisecond while a PRA sweep runs at 1
// and at 3 threads; all numbers must match the telemetry-off baseline bit
// for bit.
TEST_F(TelemetryTest, PraSweepBitwiseIdenticalWithTelemetryOnAndOff) {
  obs::set_enabled(false);
  const core::PraScores baseline = tiny_pra(1);

  {
    GlobalTelemetryGuard guard;
    obs::Telemetry::global().configure(enabled_options(1));
    obs::TelemetryRun run = obs::Telemetry::global().begin_run(
        {.name = "pra_identity", .kind = "sweep", .jobs_total = 2});
    expect_scores_bitwise(baseline, tiny_pra(1));
    run.add_done();
    expect_scores_bitwise(baseline, tiny_pra(3));
    run.add_done();
    run.finish(true);
  }
}

TEST_F(TelemetryTest, SwarmSimBitwiseIdenticalWithTelemetryOnAndOff) {
  swarm::SwarmConfig config;
  config.seed = 99;
  obs::set_enabled(false);
  const swarm::SwarmResult baseline = swarm::run_mixed_swarm(
      swarm::ClientVariant::kBirds, swarm::ClientVariant::kBitTorrent, 10,
      20, config);

  swarm::SwarmResult sampled;
  {
    GlobalTelemetryGuard guard;
    obs::Telemetry::global().configure(enabled_options(1));
    obs::TelemetryRun run = obs::Telemetry::global().begin_run(
        {.name = "swarm_identity", .kind = "swarm", .jobs_total = 1});
    sampled = swarm::run_mixed_swarm(swarm::ClientVariant::kBirds,
                                     swarm::ClientVariant::kBitTorrent, 10,
                                     20, config);
    run.finish(true);
  }
  expect_bitwise(baseline.completion_time, sampled.completion_time,
                 "completion_time");
  EXPECT_EQ(baseline.all_completed, sampled.all_completed);
}

// --- scenario runner integration --------------------------------------------

TEST_F(TelemetryTest, ScenarioRunEmitsHeartbeatLatencyAndIdenticalOutput) {
  const auto make_plan = [&](const std::string& name) {
    const std::string json =
        R"({"scenario": "tele-grid", "kind": "evolution", "output": ")" +
        (dir_ / name).string() +
        R"(", "params": {"menu": "bt,birds", "rounds": 40, "population": 20,
            "generations": [4, 6, 8, 10], "runs_per_generation": 1,
            "seed": 9}})";
    return scenario::expand_plan(scenario::parse_scenario_text(json));
  };
  scenario::RunOptions options;
  options.verbose = false;
  options.threads = 2;
  options.keep_manifest = true;

  obs::set_enabled(false);
  const scenario::RunReport baseline =
      scenario::run_scenario(make_plan("off.csv"), options);

  scenario::RunReport sampled;
  {
    GlobalTelemetryGuard guard;
    obs::Telemetry::global().configure(enabled_options(1));
    sampled = scenario::run_scenario(make_plan("on.csv"), options);
  }

  // Same bytes with the sampler attached or not.
  EXPECT_EQ(read_file(dir_ / "off.csv"), read_file(dir_ / "on.csv"));

  // The telemetry-on run left a terminal heartbeat with full progress.
  const obs::StatusFile status =
      obs::load_status_file(dir_ / "tele-grid.status.json");
  EXPECT_EQ(status.state, "done");
  EXPECT_EQ(status.kind, "evolution");
  EXPECT_EQ(status.done, 4u);
  EXPECT_EQ(status.total, 4u);
  ASSERT_EQ(status.shards.size(), 4u);
  for (const auto& [id, state] : status.shards) EXPECT_EQ(state, "done");

  // Per-job wall times landed in the manifest ("ms", provenance-only) and
  // in the report's latency summary.
  const std::string manifest = read_file(sampled.manifest);
  EXPECT_NE(manifest.find("\"ms\":"), std::string::npos);
  EXPECT_GT(sampled.job_ms_p50, 0.0);
  EXPECT_GE(sampled.job_ms_p90, sampled.job_ms_p50);
  EXPECT_GE(sampled.job_ms_p99, sampled.job_ms_p90);
  EXPECT_GE(sampled.slowest_job, 0);
  EXPECT_GE(sampled.slowest_ms, sampled.job_ms_p99 * 0.999);
  EXPECT_FALSE(sampled.slowest_label.empty());
  // The baseline run records latencies too (telemetry gates sampling, not
  // the manifest field).
  EXPECT_GT(baseline.job_ms_p50, 0.0);
}

}  // namespace

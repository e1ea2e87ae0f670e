// Sampling-profiler suite (obs/flame + Profiler live stacks): lock-free
// live-stack snapshots across threads, folded-text round-trips, attribution
// accounting, the terminal renderer, the strict `prof` token of DSA_OBS,
// and the bitwise determinism contract with the sampler thread running.
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pra.hpp"
#include "core/subspace.hpp"
#include "obs/config.hpp"
#include "obs/flame/flame.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "swarming/dsa_model.hpp"

namespace {

using namespace dsa;

std::filesystem::path temp_file(const std::string& name) {
  return std::filesystem::temp_directory_path() / name;
}

// --- folded text (pure, no instrumentation needed) ------------------------

TEST(Folded, TextRoundTripsAndDuplicateLinesAccumulate) {
  obs::FoldedStacks stacks;
  stacks["a;b;c"] = 7;
  stacks["a;b"] = 2;
  stacks["(idle)"] = 3;
  stacks["zero"] = 0;  // dropped by the writer
  const std::string text = obs::to_folded_text(stacks);
  EXPECT_EQ(text, "(idle) 3\na;b 2\na;b;c 7\n");
  stacks.erase("zero");
  EXPECT_EQ(obs::parse_folded(text), stacks);
  // The parser sums repeated paths (concatenated shards).
  const obs::FoldedStacks merged = obs::parse_folded("x;y 2\nx;y 5\n");
  EXPECT_EQ(merged.at("x;y"), 7u);
}

TEST(Folded, ParserRejectsMalformedLines) {
  EXPECT_THROW(obs::parse_folded("nocount"), std::runtime_error);
  EXPECT_THROW(obs::parse_folded("a b"), std::runtime_error);
  EXPECT_THROW(obs::parse_folded("a 12x"), std::runtime_error);
  EXPECT_THROW(obs::parse_folded(" 5"), std::runtime_error);
  EXPECT_THROW(obs::parse_folded("a;b 1\njunk\n"), std::runtime_error);
  try {
    (void)obs::parse_folded("a 1\nb\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(Folded, LoadFoldedThrowsOnMissingFile) {
  EXPECT_THROW(obs::load_folded(temp_file("dsa_flame_does_not_exist.folded")),
               std::runtime_error);
}

TEST(Folded, SummaryCountsIdleAndAttribution) {
  obs::FoldedStacks stacks;
  stacks["(idle)"] = 10;
  stacks["root"] = 5;        // one frame: observed but unattributed
  stacks["root;leaf"] = 15;  // two frames: attributed
  const obs::FlameSummary summary = obs::summarize_folded(stacks);
  EXPECT_EQ(summary.total, 30u);
  EXPECT_EQ(summary.idle, 10u);
  EXPECT_EQ(summary.attributed, 15u);
  EXPECT_DOUBLE_EQ(summary.attribution(), 0.75);

  obs::FoldedStacks idle_only;
  idle_only["(idle)"] = 4;
  // Nothing observed means nothing unattributed.
  EXPECT_DOUBLE_EQ(obs::summarize_folded(idle_only).attribution(), 1.0);
  EXPECT_DOUBLE_EQ(obs::summarize_folded({}).attribution(), 1.0);
}

TEST(Folded, RendererShowsTreeAndHottestStacks) {
  obs::FoldedStacks stacks;
  stacks["run;rounds"] = 80;
  stacks["run;rank"] = 15;
  stacks["run"] = 5;
  stacks["(idle)"] = 100;
  const std::string text = obs::render_flame(stacks);
  EXPECT_NE(text.find("flame: 200 samples (100 idle)"), std::string::npos);
  EXPECT_NE(text.find("attribution 95.0%"), std::string::npos);
  EXPECT_NE(text.find("hottest stacks:"), std::string::npos);
  EXPECT_NE(text.find("run;rounds"), std::string::npos);
  // Children render hottest-first: rounds before rank.
  EXPECT_LT(text.find("rounds"), text.find("rank"));

  obs::FoldedStacks idle_only;
  idle_only["(idle)"] = 2;
  EXPECT_NE(obs::render_flame(idle_only).find("(no non-idle samples)"),
            std::string::npos);
}

TEST(FlameOptions, EnvironmentParsingIsStrict) {
  // DSA_OBS=prof samples at 97 Hz into <dir>/PROF_<name>.folded.
  const std::filesystem::path dir = temp_file("dsa_flame_options");
  std::filesystem::remove_all(dir);
  setenv("DSA_OBS", ("prof,dir=" + dir.string()).c_str(), 1);
  obs::Session session(obs::Config::from_environment(), "sweep");
  const obs::FlameOptions options = obs::FlameSampler::global().options();
  EXPECT_TRUE(obs::FlameSampler::global().enabled());
  EXPECT_EQ(options.hz, 97u);
  EXPECT_EQ(options.out, dir / "PROF_sweep.folded");
  session.finish();
  EXPECT_FALSE(obs::FlameSampler::global().enabled());
  // The sampler ticks once on start: an enabled profiler always leaves its
  // file.
  EXPECT_GT(obs::summarize_folded(obs::load_folded(options.out)).total, 0u);
  std::filesystem::remove_all(dir);

  for (const char* bad : {"banana", "prof,prof", "prof=on", "prof,"}) {
    setenv("DSA_OBS", bad, 1);
    EXPECT_THROW((void)obs::Config::from_environment(), std::runtime_error)
        << bad;
  }
  unsetenv("DSA_OBS");
  EXPECT_FALSE(obs::Config::from_environment().prof);
}

// --- live stacks + sampler (need the runtime switch and phase macro) ------

/// Restores the global obs state so test order never matters.
struct ObsStateGuard {
  ObsStateGuard() { obs::set_enabled(true); }
  ~ObsStateGuard() { obs::set_enabled(false); }
};

TEST(LiveStacks, NestAndUnwindOnTheCallingThread) {
  ObsStateGuard guard;
  EXPECT_TRUE(obs::Profiler::global().sample_live_stacks().empty());
  {
    DSA_OBS_PHASE("outer");
    {
      std::vector<std::string> stacks =
          obs::Profiler::global().sample_live_stacks();
      ASSERT_EQ(stacks.size(), 1u);
      EXPECT_EQ(stacks[0], "outer");
    }
    {
      DSA_OBS_PHASE("inner");
      std::vector<std::string> stacks =
          obs::Profiler::global().sample_live_stacks();
      ASSERT_EQ(stacks.size(), 1u);
      EXPECT_EQ(stacks[0], "outer;inner");
    }
    // inner closed: back to the one-frame stack.
    EXPECT_EQ(obs::Profiler::global().sample_live_stacks().at(0), "outer");
  }
  EXPECT_TRUE(obs::Profiler::global().sample_live_stacks().empty());
}

TEST(LiveStacks, DisabledPhasePublishesNoFrame) {
  ObsStateGuard guard;
  obs::set_enabled(false);
  {
    DSA_OBS_PHASE("ghost");
    EXPECT_TRUE(obs::Profiler::global().sample_live_stacks().empty());
  }
  EXPECT_TRUE(obs::Profiler::global().sample_live_stacks().empty());
}

TEST(LiveStacks, WorkerThreadsContributeTheirOwnStacks) {
  ObsStateGuard guard;
  std::mutex mutex;
  std::condition_variable cv;
  bool opened = false;
  bool release = false;
  std::thread worker([&] {
    DSA_OBS_PHASE("pool");
    DSA_OBS_PHASE("job");
    {
      std::lock_guard<std::mutex> lock(mutex);
      opened = true;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return opened; });
  }
  // Main thread has no open phase, so only the worker's stack shows.
  const std::vector<std::string> stacks =
      obs::Profiler::global().sample_live_stacks();
  ASSERT_EQ(stacks.size(), 1u);
  EXPECT_EQ(stacks[0], "pool;job");
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  worker.join();
  EXPECT_TRUE(obs::Profiler::global().sample_live_stacks().empty());
}

TEST(Sampler, SampleNowAccumulatesFoldedStacksAndIdle) {
  ObsStateGuard guard;
  obs::FlameSampler sampler;  // own instance: no background thread
  sampler.sample_now();       // nothing open anywhere -> idle
  {
    DSA_OBS_PHASE("a");
    DSA_OBS_PHASE("b");
    sampler.sample_now();
    sampler.sample_now();
  }
  const obs::FoldedStacks stacks = sampler.stacks();
  EXPECT_EQ(stacks.at(obs::kIdleStack), 1u);
  EXPECT_EQ(stacks.at("a;b"), 2u);
  sampler.reset();
  EXPECT_TRUE(sampler.stacks().empty());
  EXPECT_EQ(sampler.stop_and_write(), 0u);  // nothing sampled: no file
}

TEST(Sampler, StopAndWriteRoundTripsThroughLoadFolded) {
  ObsStateGuard guard;
  const std::filesystem::path out = temp_file("dsa_flame_roundtrip.folded");
  std::filesystem::remove(out);
  obs::FlameSampler sampler;
  obs::FlameOptions options;
  options.enabled = false;  // drive it synchronously
  options.out = out;
  sampler.configure(options);
  {
    DSA_OBS_PHASE("x");
    DSA_OBS_PHASE("y");
    sampler.sample_now();
  }
  sampler.sample_now();  // idle
  EXPECT_EQ(sampler.stop_and_write(), 2u);
  EXPECT_EQ(obs::load_folded(out), sampler.stacks());
  std::filesystem::remove(out);
}

TEST(Sampler, BackgroundThreadSamplesABusyPhase) {
  ObsStateGuard guard;
  const std::filesystem::path out = temp_file("dsa_flame_thread.folded");
  std::filesystem::remove(out);
  obs::FlameSampler sampler;
  obs::FlameOptions options;
  options.enabled = true;
  options.hz = 500;
  options.out = out;
  sampler.configure(options);
  EXPECT_TRUE(sampler.enabled());
  {
    DSA_OBS_PHASE("busy");
    DSA_OBS_PHASE("spin");
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  const std::uint64_t samples = sampler.stop_and_write();
  EXPECT_FALSE(sampler.enabled());
  EXPECT_GT(samples, 0u);
  const obs::FoldedStacks stacks = obs::load_folded(out);
  EXPECT_GT(stacks.count("busy;spin"), 0u);
  std::filesystem::remove(out);
}

// --- determinism contract -------------------------------------------------

// The sampler only reads: a PRA quantification with the sampling thread
// live must produce bitwise-identical scores to a dark run.
TEST(SamplerDeterminism, PraScoresAreBitwiseIdenticalWithSamplerOn) {
  swarming::SimulationConfig sim;
  sim.rounds = 16;
  const swarming::SwarmingModel model(
      sim, swarming::BandwidthDistribution::piatek());
  const core::SubspaceModel subset(model, {0u, 1200u, 2400u});
  core::PraConfig config;
  config.population = 8;
  config.performance_runs = 1;
  config.encounter_runs = 1;
  config.opponent_sample = 2;
  config.seed = 777;
  config.threads = 2;

  obs::set_enabled(false);
  const core::PraScores baseline = core::PraEngine(subset, config).run();

  const std::filesystem::path out = temp_file("dsa_flame_determinism.folded");
  std::filesystem::remove(out);
  core::PraScores sampled;
  {
    ObsStateGuard guard;
    obs::FlameSampler sampler;
    obs::FlameOptions options;
    options.enabled = true;
    options.hz = 1000;  // oversample to maximize interference chances
    options.out = out;
    sampler.configure(options);
    sampled = core::PraEngine(subset, config).run();
    sampler.stop_and_write();
  }
  std::filesystem::remove(out);

  ASSERT_EQ(baseline.performance.size(), sampled.performance.size());
  for (std::size_t i = 0; i < baseline.performance.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(baseline.performance[i]),
              std::bit_cast<std::uint64_t>(sampled.performance[i]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(baseline.robustness[i]),
              std::bit_cast<std::uint64_t>(sampled.robustness[i]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(baseline.aggressiveness[i]),
              std::bit_cast<std::uint64_t>(sampled.aggressiveness[i]));
  }
}

}  // namespace

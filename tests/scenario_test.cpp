// Tests for src/scenario: spec parsing (strict, key-path errors), plan
// expansion (deterministic, order-stable), and the crash-tolerant job
// runner (kill-and-resume must reproduce an uninterrupted run's output
// byte for byte).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pra.hpp"
#include "scenario/plan.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "swarming/dsa_model.hpp"
#include "swarming/pra_dataset.hpp"
#include "swarming/protocol.hpp"
#include "util/json.hpp"

namespace {

namespace fs = std::filesystem;
using namespace dsa;
using util::json::ParseError;
using util::json::SchemaError;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------- spec parser ----

TEST(SpecParser, UnknownParamNamesKindAndAllowedList) {
  const std::string json = R"({"scenario": "t", "kind": "swarm",
    "output": "o.csv", "params": {"fractoin": 0.5}})";
  try {
    (void)scenario::parse_scenario_text(json, "bad.json");
    FAIL() << "expected SchemaError";
  } catch (const SchemaError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("bad.json"), std::string::npos) << what;
    EXPECT_NE(what.find("$.params"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown parameter \"fractoin\""), std::string::npos)
        << what;
    EXPECT_NE(what.find("swarm"), std::string::npos) << what;
    EXPECT_NE(what.find("fraction"), std::string::npos) << what;  // allowed
  }
}

TEST(SpecParser, SweepRejectsTheRemovedEngineParameter) {
  // The round model has one engine, so a sweep spec that still names one
  // is rejected like any other unknown parameter, not silently accepted.
  const std::string json = R"({"scenario": "t", "kind": "sweep",
    "output": "o.csv", "params": {"engine": "sparse"}})";
  try {
    (void)scenario::parse_scenario_text(json, "old.json");
    FAIL() << "expected SchemaError";
  } catch (const SchemaError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("$.params"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown parameter \"engine\""), std::string::npos)
        << what;
  }
}

TEST(SpecParser, SwarmAndExploreRejectTheRemovedTimeoutParameter) {
  // The swarm has no piece timeouts, so neither kind takes a timeout.
  for (const char* kind : {"swarm", "explore"}) {
    const std::string json =
        std::string(R"({"scenario": "t", "kind": ")") + kind +
        R"(", "output": "o.csv", "params": {"timeout": 5}})";
    try {
      (void)scenario::parse_scenario_text(json, "old.json");
      ADD_FAILURE() << "expected SchemaError for kind " << kind;
    } catch (const SchemaError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("$.params"), std::string::npos) << what;
      EXPECT_NE(what.find("unknown parameter \"timeout\""), std::string::npos)
          << what;
    }
  }
}

TEST(SpecParser, RangeViolationNamesKeyPath) {
  const std::string json = R"({"scenario": "t", "kind": "swarm",
    "output": "o.csv", "params": {"fraction": 1.5}})";
  try {
    (void)scenario::parse_scenario_text(json, "bad.json");
    FAIL() << "expected SchemaError";
  } catch (const SchemaError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("$.params.fraction"), std::string::npos) << what;
    EXPECT_NE(what.find("(0, 1)"), std::string::npos) << what;
  }
}

TEST(SpecParser, GridValueErrorNamesElementPath) {
  const std::string json = R"({"scenario": "t", "kind": "swarm",
    "output": "o.csv", "params": {"a": ["bt", "ghost"]}})";
  try {
    (void)scenario::parse_scenario_text(json, "bad.json");
    FAIL() << "expected SchemaError";
  } catch (const SchemaError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("$.params.a[1]"), std::string::npos) << what;
    EXPECT_NE(what.find("ghost"), std::string::npos) << what;
  }
}

TEST(SpecParser, SweepRejectsParameterGrids) {
  const std::string json = R"({"scenario": "t", "kind": "sweep",
    "output": "o.csv", "params": {"rounds": [10, 20]}})";
  EXPECT_THROW((void)scenario::parse_scenario_text(json), SchemaError);
}

TEST(SpecParser, UnknownTopLevelKeyRejected) {
  const std::string json = R"({"scenario": "t", "kind": "sweep",
    "output": "o.csv", "parms": {}})";
  try {
    (void)scenario::parse_scenario_text(json);
    FAIL() << "expected SchemaError";
  } catch (const SchemaError& error) {
    EXPECT_NE(std::string(error.what()).find("unknown key \"parms\""),
              std::string::npos)
        << error.what();
  }
}

TEST(SpecParser, MalformedJsonNamesLine) {
  try {
    (void)scenario::parse_scenario_text("{\n  \"scenario\" \"x\"\n}",
                                        "spec.json");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("spec.json:2"), std::string::npos)
        << error.what();
  }
}

TEST(SpecParser, RequiredKeysEnforced) {
  EXPECT_THROW((void)scenario::parse_scenario_text(
                   R"({"kind": "sweep", "output": "o.csv"})"),
               SchemaError);
  EXPECT_THROW((void)scenario::parse_scenario_text(
                   R"({"scenario": "t", "output": "o.csv"})"),
               SchemaError);
  EXPECT_THROW((void)scenario::parse_scenario_text(
                   R"({"scenario": "t", "kind": "sweep"})"),
               SchemaError);
  EXPECT_THROW(
      (void)scenario::parse_scenario_text(
          R"({"scenario": "t", "kind": "quantum", "output": "o.csv"})"),
      SchemaError);
}

TEST(SpecParser, ChunkOnlyValidForSweep) {
  EXPECT_THROW((void)scenario::parse_scenario_text(
                   R"({"scenario": "t", "kind": "swarm", "output": "o.csv",
                       "chunk": 8})"),
               SchemaError);
}

TEST(SpecParser, DefaultsMatchExplicitValues) {
  const scenario::ScenarioSpec implicit = scenario::parse_scenario_text(
      R"({"scenario": "a", "kind": "ess", "output": "x.csv"})");
  const scenario::ScenarioSpec explicit_spec = scenario::parse_scenario_text(
      R"({"scenario": "b", "kind": "ess", "output": "y.csv",
          "params": {"protocol": "bt", "rounds": 200, "population": 50,
                     "mutant_fraction": 0.1, "runs": 1, "mutant_sample": 24,
                     "seed": 2011}})");
  // Name and output are identity, not content: fingerprints must agree.
  EXPECT_EQ(implicit.fingerprint(), explicit_spec.fingerprint());
}

TEST(SpecParser, KeyOrderDoesNotChangeFingerprintOrJobOrder) {
  const scenario::ScenarioSpec a = scenario::parse_scenario_text(
      R"({"scenario": "t", "kind": "evolution", "output": "o.csv",
          "params": {"seed": [1, 2], "generations": [4, 6]}})");
  const scenario::ScenarioSpec b = scenario::parse_scenario_text(
      R"({"scenario": "t", "kind": "evolution", "output": "o.csv",
          "params": {"generations": [4, 6], "seed": [1, 2]}})");
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  const scenario::Plan pa = scenario::expand_plan(a);
  const scenario::Plan pb = scenario::expand_plan(b);
  ASSERT_EQ(pa.jobs.size(), pb.jobs.size());
  for (std::size_t i = 0; i < pa.jobs.size(); ++i) {
    EXPECT_EQ(pa.jobs[i].fingerprint, pb.jobs[i].fingerprint) << i;
    EXPECT_EQ(pa.jobs[i].label, pb.jobs[i].label) << i;
  }
}

// ------------------------------------------------------- plan expansion ----

TEST(PlanExpansion, GridIsCartesianLastAxisFastest) {
  const scenario::Plan plan = scenario::expand_plan(scenario::parse_scenario_text(
      R"({"scenario": "t", "kind": "evolution", "output": "o.csv",
          "params": {"generations": [4, 6], "seed": [1, 2, 3]}})"));
  ASSERT_EQ(plan.jobs.size(), 6u);
  // Table order puts generations before seed, so seed varies fastest.
  EXPECT_EQ(plan.jobs[0].label, "generations=4 seed=1");
  EXPECT_EQ(plan.jobs[1].label, "generations=4 seed=2");
  EXPECT_EQ(plan.jobs[2].label, "generations=4 seed=3");
  EXPECT_EQ(plan.jobs[3].label, "generations=6 seed=1");
  EXPECT_EQ(plan.jobs[5].label, "generations=6 seed=3");
  EXPECT_EQ(plan.jobs[4].params.get_int("generations"), 6);
  EXPECT_EQ(plan.jobs[4].params.get_int("seed"), 2);
}

TEST(PlanExpansion, IsDeterministicAcrossCalls) {
  const scenario::ScenarioSpec spec = scenario::parse_scenario_text(
      R"({"scenario": "t", "kind": "swarm", "output": "o.csv",
          "params": {"a": ["bt", "birds"], "intensity": [0.0, 0.5]}})");
  const scenario::Plan first = scenario::expand_plan(spec);
  const scenario::Plan second = scenario::expand_plan(spec);
  ASSERT_EQ(first.jobs.size(), 4u);
  for (std::size_t i = 0; i < first.jobs.size(); ++i) {
    EXPECT_EQ(first.jobs[i].fingerprint, second.jobs[i].fingerprint);
    EXPECT_EQ(first.jobs[i].index, i);
  }
  // Distinct jobs must not collide.
  for (std::size_t i = 0; i < first.jobs.size(); ++i) {
    for (std::size_t j = i + 1; j < first.jobs.size(); ++j) {
      EXPECT_NE(first.jobs[i].fingerprint, first.jobs[j].fingerprint);
    }
  }
}

TEST(PlanExpansion, SweepShardsSelectionIntoChunks) {
  const scenario::Plan plan = scenario::expand_plan(scenario::parse_scenario_text(
      R"({"scenario": "t", "kind": "sweep", "output": "o.csv", "chunk": 3,
          "params": {"protocols": "stride:500"}})"));
  // stride:500 -> ids 0,500,...,3000 = 7 ids -> shards of 3,3,1.
  ASSERT_EQ(plan.jobs.size(), 3u);
  EXPECT_EQ(plan.jobs[0].protocols,
            (std::vector<std::uint32_t>{0, 500, 1000}));
  EXPECT_EQ(plan.jobs[1].protocols,
            (std::vector<std::uint32_t>{1500, 2000, 2500}));
  EXPECT_EQ(plan.jobs[2].protocols, (std::vector<std::uint32_t>{3000}));
  EXPECT_EQ(plan.jobs[0].label, "protocols 0..1000");
  // Different shards hash differently even with identical parameters.
  EXPECT_NE(plan.jobs[0].fingerprint, plan.jobs[1].fingerprint);
}

// ---------------------------------------------------------------- runner ----

class ScenarioRunner : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case AND per process: ctest runs cases concurrently
    // in separate processes, so a plain counter would collide.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("dsa_scenario_test_" + std::string(info->name()) + "_" +
            std::to_string(static_cast<long long>(::getpid())));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A fast 4-job evolution grid writing to `name` inside the temp dir.
  scenario::Plan evolution_plan(const std::string& name,
                                std::size_t retries = 0) const {
    const std::string json =
        R"({"scenario": "grid", "kind": "evolution", "output": ")" +
        (dir_ / name).string() + R"(", "retries": )" +
        std::to_string(retries) +
        R"(, "params": {"menu": "bt,birds", "rounds": 40, "population": 20,
            "generations": [4, 6, 8, 10], "runs_per_generation": 1,
            "seed": 9}})";
    return scenario::expand_plan(scenario::parse_scenario_text(json));
  }

  static scenario::RunOptions quiet(std::size_t threads = 1) {
    scenario::RunOptions options;
    options.verbose = false;
    options.threads = threads;
    return options;
  }

  fs::path dir_;
};

TEST_F(ScenarioRunner, ThreadCountNeverChangesOutputBytes) {
  const scenario::Plan one = evolution_plan("one.csv");
  const scenario::Plan three = evolution_plan("three.csv");
  const auto r1 = scenario::run_scenario(one, quiet(1));
  const auto r3 = scenario::run_scenario(three, quiet(3));
  EXPECT_EQ(r1.executed, 4u);
  EXPECT_EQ(r3.executed, 4u);
  const std::string bytes = read_file(one.spec.output);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_file(three.spec.output));
}

TEST_F(ScenarioRunner, KillAndResumeIsByteIdenticalAndSkipsCompletedJobs) {
  // Reference: one uninterrupted run.
  const scenario::Plan reference = evolution_plan("reference.csv");
  scenario::run_scenario(reference, quiet(1));
  const std::string expected = read_file(reference.spec.output);

  // Interrupted run: the max_jobs hook kills the process-equivalent after
  // two jobs; the manifest must hold exactly those two.
  const scenario::Plan plan = evolution_plan("resumed.csv");
  scenario::RunOptions abort_options = quiet(1);
  abort_options.max_jobs = 2;
  EXPECT_THROW(scenario::run_scenario(plan, abort_options),
               scenario::RunAborted);
  EXPECT_FALSE(fs::exists(plan.spec.output));
  EXPECT_EQ(scenario::completed_jobs_in_manifest(plan),
            (std::vector<std::size_t>{0, 1}));

  // Resume: completed jobs are skipped, the rest run, and the merged file
  // is byte-identical to the uninterrupted run. The manifest is gone.
  const auto report = scenario::run_scenario(plan, quiet(2));
  EXPECT_EQ(report.skipped, 2u);
  EXPECT_EQ(report.executed, 2u);
  EXPECT_EQ(read_file(plan.spec.output), expected);
  EXPECT_FALSE(fs::exists(scenario::manifest_path(plan)));
}

TEST_F(ScenarioRunner, TornManifestTailIsIgnoredOnResume) {
  const scenario::Plan reference = evolution_plan("reference.csv");
  scenario::run_scenario(reference, quiet(1));
  const std::string expected = read_file(reference.spec.output);

  const scenario::Plan plan = evolution_plan("torn.csv");
  scenario::RunOptions abort_options = quiet(1);
  abort_options.max_jobs = 2;
  EXPECT_THROW(scenario::run_scenario(plan, abort_options),
               scenario::RunAborted);
  {
    // A kill mid-append leaves a partial line with no newline.
    std::ofstream out(scenario::manifest_path(plan),
                      std::ios::binary | std::ios::app);
    out << R"({"job":2,"fp":"dead)";
  }
  EXPECT_EQ(scenario::completed_jobs_in_manifest(plan),
            (std::vector<std::size_t>{0, 1}));
  const auto report = scenario::run_scenario(plan, quiet(1));
  EXPECT_EQ(report.skipped, 2u);
  EXPECT_EQ(report.executed, 2u);
  EXPECT_EQ(read_file(plan.spec.output), expected);
}

TEST_F(ScenarioRunner, ForeignManifestIsDistrusted) {
  const scenario::Plan plan = evolution_plan("foreign.csv");
  {
    std::ofstream out(scenario::manifest_path(plan), std::ios::binary);
    out << "{\"scenario\":\"other\",\"spec_fp\":\"0000000000000000\","
           "\"jobs\":4,\"columns\":[]}\n";
  }
  EXPECT_TRUE(scenario::completed_jobs_in_manifest(plan).empty());
  const auto report = scenario::run_scenario(plan, quiet(1));
  EXPECT_EQ(report.executed, 4u);
  EXPECT_EQ(report.skipped, 0u);
}

TEST_F(ScenarioRunner, RetriesTransientFailuresThenSucceeds) {
  const scenario::Plan plan = evolution_plan("retry.csv", /*retries=*/1);
  scenario::RunOptions options = quiet(1);
  std::atomic<int> failures_injected{0};
  options.before_attempt = [&](std::size_t job, std::size_t attempt) {
    if (job == 1 && attempt == 0) {
      failures_injected.fetch_add(1);
      throw std::runtime_error("injected transient failure");
    }
  };
  const auto report = scenario::run_scenario(plan, options);
  EXPECT_EQ(failures_injected.load(), 1);
  EXPECT_EQ(report.retried, 1u);
  EXPECT_EQ(report.executed, 4u);
  EXPECT_TRUE(fs::exists(plan.spec.output));
}

TEST_F(ScenarioRunner, ExhaustedRetriesThrowButKeepCompletedJobs) {
  const scenario::Plan plan = evolution_plan("fails.csv", /*retries=*/0);
  scenario::RunOptions options = quiet(1);
  options.before_attempt = [](std::size_t job, std::size_t) {
    if (job == 2) throw std::runtime_error("injected permanent failure");
  };
  try {
    scenario::run_scenario(plan, options);
    FAIL() << "expected runtime_error";
  } catch (const scenario::RunAborted&) {
    FAIL() << "wrong exception type";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("job 2"), std::string::npos) << what;
    EXPECT_NE(what.find("injected permanent failure"), std::string::npos)
        << what;
  }
  EXPECT_FALSE(fs::exists(plan.spec.output));
  EXPECT_EQ(scenario::completed_jobs_in_manifest(plan),
            (std::vector<std::size_t>{0, 1, 3}));

  // A later clean run finishes only the failed job.
  const auto report = scenario::run_scenario(plan, quiet(1));
  EXPECT_EQ(report.skipped, 3u);
  EXPECT_EQ(report.executed, 1u);
}

TEST_F(ScenarioRunner, ExistingOutputShortCircuits) {
  const scenario::Plan plan = evolution_plan("done.csv");
  {
    std::ofstream out(plan.spec.output, std::ios::binary);
    out << "sentinel";
  }
  const auto report = scenario::run_scenario(plan, quiet(1));
  EXPECT_TRUE(report.reused_output);
  EXPECT_EQ(report.executed, 0u);
  EXPECT_EQ(read_file(plan.spec.output), "sentinel");
}

TEST_F(ScenarioRunner, KeepManifestRetainsTheJsonl) {
  const scenario::Plan plan = evolution_plan("kept.csv");
  scenario::RunOptions options = quiet(1);
  options.keep_manifest = true;
  scenario::run_scenario(plan, options);
  EXPECT_TRUE(fs::exists(scenario::manifest_path(plan)));
  EXPECT_EQ(scenario::completed_jobs_in_manifest(plan),
            (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST_F(ScenarioRunner, SweepMergeMatchesCanonicalDatasetWriter) {
  // A miniature of the acceptance criterion: the sharded, resumable sweep
  // must produce the same bytes save_pra_dataset would write for the same
  // records (the full-space spec then reproduces results/pra_results.csv).
  const std::string out = (dir_ / "sweep.csv").string();
  const std::string json =
      R"({"scenario": "mini-sweep", "kind": "sweep", "output": ")" + out +
      R"(", "chunk": 2, "params": {"protocols": "0,1,2,3,4,5", "rounds": 8,
          "population": 10, "performance_runs": 1, "encounter_runs": 1,
          "opponent_sample": 4, "minority_fraction": 0.2, "seed": 3}})";
  const scenario::Plan plan =
      scenario::expand_plan(scenario::parse_scenario_text(json));
  ASSERT_EQ(plan.jobs.size(), 3u);
  scenario::run_scenario(plan, quiet(2));

  swarming::SimulationConfig sim;
  sim.rounds = 8;
  const swarming::SwarmingModel model(
      sim, swarming::BandwidthDistribution::piatek());
  core::PraConfig pra;
  pra.population = 10;
  pra.performance_runs = 1;
  pra.encounter_runs = 1;
  pra.opponent_sample = 4;
  pra.minority_fraction = 0.2;
  pra.seed = 3;
  pra.threads = 1;
  const core::PraEngine engine(model, pra);
  std::vector<swarming::PraRecord> records;
  for (std::uint32_t id = 0; id < 6; ++id) {
    const auto metrics = engine.quantify(id, id + 1);
    swarming::PraRecord rec;
    rec.protocol = id;
    rec.spec = swarming::decode_protocol(id);
    rec.raw_performance = metrics.front().raw_performance;
    rec.robustness = metrics.front().robustness;
    rec.aggressiveness = metrics.front().aggressiveness;
    records.push_back(rec);
  }
  double best = 0.0;
  for (const auto& rec : records) best = std::max(best, rec.raw_performance);
  for (auto& rec : records) {
    rec.performance = best > 0.0 ? rec.raw_performance / best : 0.0;
  }
  const fs::path reference = dir_ / "reference.csv";
  swarming::save_pra_dataset(records, reference);
  EXPECT_EQ(read_file(out), read_file(reference));
}

TEST_F(ScenarioRunner, KilledSweepResumesToUninterruptedBytes) {
  // The sweep kind through the runner's crash path: a sweep killed after
  // one chunk and resumed on 2 threads must merge to the same bytes as an
  // uninterrupted 1-thread run of the same spec — the kill point and the
  // thread count are invisible in the output.
  const auto sweep_json = [this](const std::string& name) {
    return R"({"scenario": "mini-sweep", "kind": "sweep", "output": ")" +
           (dir_ / name).string() +
           R"(", "chunk": 2, "params": {"protocols": "0,1,2,3,4,5",
               "rounds": 8, "population": 10, "performance_runs": 1,
               "encounter_runs": 1, "opponent_sample": 4,
               "minority_fraction": 0.2, "seed": 3}})";
  };
  const scenario::Plan uninterrupted = scenario::expand_plan(
      scenario::parse_scenario_text(sweep_json("uninterrupted.csv")));
  scenario::run_scenario(uninterrupted, quiet(1));
  const std::string expected = read_file(uninterrupted.spec.output);
  ASSERT_FALSE(expected.empty());

  const scenario::Plan resumed = scenario::expand_plan(
      scenario::parse_scenario_text(sweep_json("resumed.csv")));
  ASSERT_EQ(resumed.jobs.size(), 3u);
  scenario::RunOptions abort_options = quiet(1);
  abort_options.max_jobs = 1;
  EXPECT_THROW(scenario::run_scenario(resumed, abort_options),
               scenario::RunAborted);
  EXPECT_EQ(scenario::completed_jobs_in_manifest(resumed),
            (std::vector<std::size_t>{0}));

  const auto report = scenario::run_scenario(resumed, quiet(2));
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(report.executed, 2u);
  EXPECT_EQ(read_file(resumed.spec.output), expected);
}

}  // namespace

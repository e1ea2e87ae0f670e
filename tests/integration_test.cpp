// Integration tests across core + swarming: the PRA quantification running
// on the real round-based simulator (over a focused subspace to stay fast),
// the PRA dataset persistence layer, and the DSA_* knobs that scale the
// sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "core/pra.hpp"
#include "core/subspace.hpp"
#include "scenario/knobs.hpp"
#include "swarming/dsa_model.hpp"
#include "swarming/pra_dataset.hpp"

namespace {

using namespace dsa;
using namespace dsa::swarming;

SwarmingModel quick_model(std::size_t rounds = 120) {
  SimulationConfig sim;
  sim.rounds = rounds;
  return SwarmingModel(sim, BandwidthDistribution::piatek());
}

std::uint32_t freerider_id() {
  ProtocolSpec spec;
  spec.stranger_policy = StrangerPolicy::kPeriodic;
  spec.stranger_slots = 1;
  spec.ranking = RankingFunction::kFastest;
  spec.partner_slots = 9;
  spec.allocation = AllocationPolicy::kFreeride;
  return encode_protocol(spec);
}

std::uint32_t robust_id() {
  ProtocolSpec spec;
  spec.stranger_policy = StrangerPolicy::kWhenNeeded;
  spec.stranger_slots = 2;
  spec.ranking = RankingFunction::kFastest;
  spec.partner_slots = 7;
  spec.allocation = AllocationPolicy::kPropShare;
  return encode_protocol(spec);
}

TEST(Integration, PraOverNamedProtocolSubspace) {
  const SwarmingModel model = quick_model();
  core::SubspaceModel subset(
      model, {encode_protocol(bittorrent_protocol()),
              encode_protocol(birds_protocol()),
              encode_protocol(loyal_when_needed_protocol()),
              encode_protocol(sort_s_protocol()), robust_id(),
              freerider_id()});

  core::PraConfig config;
  config.population = 50;
  config.performance_runs = 2;
  config.encounter_runs = 2;
  config.seed = 77;
  const core::PraScores scores = core::PraEngine(subset, config).run();

  // Indices in the subset, as listed above.
  constexpr std::size_t kBt = 0, kBirds = 1, kLoyal = 2, kRobust = 4,
                        kFreerider = 5;

  // The freerider never uploads to partners: terrible performance and it
  // loses every tournament against reciprocating protocols here.
  EXPECT_LT(scores.performance[kFreerider], 0.4);
  EXPECT_LT(scores.robustness[kFreerider], 0.5);

  // The paper's robust family (When-needed + Fastest + PropShare) and
  // Loyal-When-needed dominate the freerider.
  EXPECT_GT(scores.robustness[kRobust], scores.robustness[kFreerider]);
  EXPECT_GT(scores.robustness[kLoyal], scores.robustness[kFreerider]);

  // Every score lives in [0, 1]; the best performer is exactly 1.
  double best = 0.0;
  for (std::size_t i = 0; i < scores.performance.size(); ++i) {
    EXPECT_GE(scores.performance[i], 0.0);
    EXPECT_LE(scores.performance[i], 1.0);
    EXPECT_GE(scores.robustness[i], 0.0);
    EXPECT_LE(scores.robustness[i], 1.0);
    best = std::max(best, scores.performance[i]);
  }
  EXPECT_DOUBLE_EQ(best, 1.0);

  // Reference points of Sec. 4.4.2/5: BitTorrent and Birds are reciprocating
  // protocols with solid performance (well above the freerider's).
  EXPECT_GT(scores.performance[kBt], scores.performance[kFreerider]);
  EXPECT_GT(scores.performance[kBirds], scores.performance[kFreerider]);
}

TEST(Integration, PraResultsAreReproducibleAcrossEngineRuns) {
  const SwarmingModel model = quick_model(60);
  core::SubspaceModel subset(model,
                             {encode_protocol(bittorrent_protocol()),
                              encode_protocol(birds_protocol()), robust_id()});
  core::PraConfig config;
  config.performance_runs = 2;
  config.encounter_runs = 1;
  const auto first = core::PraEngine(subset, config).run();
  const auto second = core::PraEngine(subset, config).run();
  EXPECT_EQ(first.raw_performance, second.raw_performance);
  EXPECT_EQ(first.robustness, second.robustness);
  EXPECT_EQ(first.aggressiveness, second.aggressiveness);
}

// ----------------------------------------------------------- dataset IO ----

TEST(PraDataset, SaveLoadRoundTrip) {
  std::vector<PraRecord> records;
  for (std::uint32_t id : {0u, 17u, 1234u, kProtocolCount - 1}) {
    PraRecord rec;
    rec.protocol = id;
    rec.spec = decode_protocol(id);
    rec.raw_performance = 100.0 + id;
    rec.performance = 0.25;
    rec.robustness = 0.5;
    rec.aggressiveness = 0.75;
    records.push_back(rec);
  }
  const auto path =
      std::filesystem::temp_directory_path() / "dsa_pra_roundtrip.csv";
  save_pra_dataset(records, path);
  const auto loaded = load_pra_dataset(path);
  ASSERT_EQ(loaded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded[i].protocol, records[i].protocol);
    EXPECT_EQ(loaded[i].spec, records[i].spec);
    EXPECT_DOUBLE_EQ(loaded[i].raw_performance, records[i].raw_performance);
    EXPECT_DOUBLE_EQ(loaded[i].robustness, records[i].robustness);
  }
  std::filesystem::remove(path);
}

/// Unsets every scale knob, so each case starts from the quick defaults.
void clear_knobs() {
  for (const char* var :
       {"DSA_ROUNDS", "DSA_POPULATION", "DSA_PERF_RUNS", "DSA_ENCOUNTER_RUNS",
        "DSA_OPPONENTS", "DSA_SEED", "DSA_FULL", "DSA_RESULTS", "DSA_THREADS",
        "DSA_CHECKPOINT"}) {
    unsetenv(var);
  }
}

TEST(PraDataset, OptionsReadEnvironment) {
  clear_knobs();
  setenv("DSA_ROUNDS", "77", 1);
  setenv("DSA_PERF_RUNS", "9", 1);
  setenv("DSA_OPPONENTS", "5", 1);
  setenv("DSA_RESULTS", "/tmp/custom_pra.csv", 1);
  setenv("DSA_THREADS", "3", 1);
  const auto knobs = scenario::sweep_knobs_from_environment();
  const scenario::ParamSet params = knobs.spec.scalar_params();
  EXPECT_EQ(params.get_int("rounds"), 77);
  EXPECT_EQ(params.get_int("performance_runs"), 9);
  EXPECT_EQ(params.get_int("opponent_sample"), 5);
  EXPECT_EQ(knobs.spec.output, std::filesystem::path("/tmp/custom_pra.csv"));
  EXPECT_EQ(knobs.spec.name, "custom_pra");  // the output's stem
  EXPECT_EQ(knobs.threads, 3u);
  // An explicit output (dsa_cli sweep --out) replaces DSA_RESULTS.
  EXPECT_EQ(scenario::sweep_knobs_from_environment("/tmp/x/other.csv")
                .spec.output,
            std::filesystem::path("/tmp/x/other.csv"));
  clear_knobs();
}

TEST(PraDataset, FullFlagRestoresPaperFidelityDefaults) {
  clear_knobs();
  setenv("DSA_FULL", "1", 1);
  const scenario::ParamSet params =
      scenario::sweep_knobs_from_environment().spec.scalar_params();
  EXPECT_EQ(params.get_int("rounds"), 500);
  EXPECT_EQ(params.get_int("performance_runs"), 100);
  EXPECT_EQ(params.get_int("encounter_runs"), 10);
  EXPECT_EQ(params.get_int("opponent_sample"), 0);  // exhaustive
  // An explicit knob still wins over DSA_FULL.
  setenv("DSA_ROUNDS", "300", 1);
  EXPECT_EQ(scenario::sweep_knobs_from_environment()
                .spec.scalar_params()
                .get_int("rounds"),
            300);
  clear_knobs();
}

TEST(PraDataset, DefaultsAreTheQuickScale) {
  clear_knobs();
  const auto knobs = scenario::sweep_knobs_from_environment();
  const scenario::ParamSet params = knobs.spec.scalar_params();
  EXPECT_EQ(params.get_int("rounds"), 120);
  EXPECT_EQ(params.get_int("population"), 50);
  EXPECT_EQ(params.get_int("performance_runs"), 3);
  EXPECT_EQ(params.get_int("encounter_runs"), 1);
  EXPECT_EQ(params.get_int("opponent_sample"), 24);
  EXPECT_EQ(params.get_int("seed"), 2011);
  EXPECT_EQ(params.get_string("protocols"), "all");
  EXPECT_EQ(knobs.spec.chunk, 256u);
  EXPECT_EQ(knobs.spec.output,
            std::filesystem::path("results/pra_results.csv"));
  EXPECT_EQ(knobs.threads, 0u);
  // The committed dataset's provenance is this very spec.
  const scenario::ScenarioSpec committed =
      scenario::parse_scenario_file(std::filesystem::path(DSA_SOURCE_DIR) /
                                    "examples/scenarios/pra_sweep.json");
  EXPECT_EQ(knobs.spec.fingerprint(), committed.fingerprint());
  EXPECT_EQ(knobs.spec.name, committed.name);
  EXPECT_EQ(knobs.spec.output, committed.output);
}

TEST(PraDataset, OutOfRangeKnobNamesTheVariable) {
  clear_knobs();
  const auto error_of = [] {
    try {
      (void)scenario::sweep_knobs_from_environment();
    } catch (const scenario::KnobError& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  setenv("DSA_POPULATION", "1", 1);
  EXPECT_EQ(error_of(), "DSA_POPULATION=1 is invalid: value must be >= 2");
  clear_knobs();
  setenv("DSA_ROUNDS", "0", 1);
  EXPECT_EQ(error_of(), "DSA_ROUNDS=0 is invalid: value must be > 0");
  clear_knobs();
  setenv("DSA_PERF_RUNS", "three", 1);
  EXPECT_NE(error_of().find("DSA_PERF_RUNS='three' is invalid"),
            std::string::npos);
  clear_knobs();
  setenv("DSA_CHECKPOINT", "256", 1);
  EXPECT_EQ(error_of().rfind("DSA_CHECKPOINT is no longer read", 0), 0u);
  clear_knobs();
}

TEST(PraDataset, LoadMissingFileThrows) {
  EXPECT_THROW(load_pra_dataset("/nonexistent/pra.csv"), std::runtime_error);
}

TEST(PraDataset, CachedDatasetOnDiskIsWellFormedWhenPresent) {
  // Integrity check of the shared bench cache: one record per protocol,
  // metrics in range, normalization anchored at 1. Skipped when the cache
  // has not been generated yet.
  // ctest runs tests from the build tree (typically <repo>/build/tests);
  // the cache lives in the source tree.
  std::filesystem::path path;
  for (const char* candidate :
       {"results/pra_results.csv", "../results/pra_results.csv",
        "../../results/pra_results.csv"}) {
    if (std::filesystem::exists(candidate)) {
      path = candidate;
      break;
    }
  }
  if (path.empty()) {
    GTEST_SKIP() << "no cached dataset (run a figure bench first)";
  }
  const auto records = load_pra_dataset(path);
  ASSERT_EQ(records.size(), kProtocolCount);
  double best_performance = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].protocol, static_cast<std::uint32_t>(i));
    ASSERT_GE(records[i].performance, 0.0);
    ASSERT_LE(records[i].performance, 1.0);
    ASSERT_GE(records[i].robustness, 0.0);
    ASSERT_LE(records[i].robustness, 1.0);
    ASSERT_GE(records[i].aggressiveness, 0.0);
    ASSERT_LE(records[i].aggressiveness, 1.0);
    best_performance = std::max(best_performance, records[i].performance);
  }
  EXPECT_DOUBLE_EQ(best_performance, 1.0);
}

}  // namespace

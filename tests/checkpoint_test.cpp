// Crash-tolerant PRA sweep machinery: per-protocol engine methods must
// reproduce the batch passes exactly (the property that lets a sweep be
// sharded into jobs and resumed), and a slice's exact raw metrics must not
// depend on the thread count, workspace reuse, or the round-model engine.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/pra.hpp"
#include "core/subspace.hpp"
#include "oracle/dense_engine.hpp"
#include "swarming/dsa_model.hpp"
#include "util/fingerprint.hpp"
#include "util/rng.hpp"

namespace {

using namespace dsa;

/// Seed-sensitive toy domain: utilities depend on (protocol, seed), so any
/// change in per-item seed derivation shows up as a numeric mismatch.
class SeededModel final : public core::EncounterModel {
 public:
  explicit SeededModel(std::uint32_t protocols) : protocols_(protocols) {}

  [[nodiscard]] std::uint32_t protocol_count() const override {
    return protocols_;
  }
  [[nodiscard]] std::string protocol_name(std::uint32_t id) const override {
    return "seeded-" + std::to_string(id);
  }
  [[nodiscard]] double homogeneous_utility(std::uint32_t p, std::size_t,
                                           std::uint64_t seed) const override {
    return static_cast<double>(util::hash64(seed ^ (p * 2654435761ULL)) %
                               10000) /
           100.0;
  }
  [[nodiscard]] std::pair<double, double> mixed_utilities(
      std::uint32_t a, std::uint32_t b, std::size_t count_a, std::size_t,
      std::uint64_t seed) const override {
    const std::uint64_t mix =
        util::hash64(seed ^ (static_cast<std::uint64_t>(a) << 32) ^ b ^
                     count_a);
    return {static_cast<double>(mix % 997), static_cast<double>(mix % 991)};
  }

 private:
  std::uint32_t protocols_;
};

TEST(PraPerProtocol, MatchesBatchPassesExactly) {
  SeededModel model(7);
  core::PraConfig config;
  config.population = 20;
  config.performance_runs = 3;
  config.encounter_runs = 2;
  config.seed = 99;
  config.threads = 2;
  // Every opponent, then a sample of 3 of the 6 others.
  for (const std::size_t sample : {std::size_t{0}, std::size_t{3}}) {
    config.opponent_sample = sample;
    const core::PraEngine engine(model, config);

    const std::vector<double> raw = engine.raw_performance();
    const std::vector<double> robustness = engine.tournament(0.5);
    const std::vector<double> aggressiveness = engine.tournament(0.1);
    for (std::uint32_t p = 0; p < model.protocol_count(); ++p) {
      EXPECT_DOUBLE_EQ(raw[p], engine.raw_performance_of(p)) << p;
      EXPECT_DOUBLE_EQ(robustness[p], engine.win_rate_of(p, 0.5)) << p;
      EXPECT_DOUBLE_EQ(aggressiveness[p], engine.win_rate_of(p, 0.1)) << p;
    }
  }
}

TEST(PraQuantify, MatchesPerProtocolMethodsExactly) {
  SeededModel model(9);
  core::PraConfig config;
  config.population = 20;
  config.performance_runs = 3;
  config.encounter_runs = 2;
  config.opponent_sample = 4;
  config.seed = 123;
  config.threads = 3;
  const core::PraEngine engine(model, config);

  const auto metrics = engine.quantify(2, 7);
  ASSERT_EQ(metrics.size(), 5u);
  for (std::uint32_t i = 0; i < metrics.size(); ++i) {
    const std::uint32_t p = 2 + i;
    EXPECT_DOUBLE_EQ(metrics[i].raw_performance, engine.raw_performance_of(p))
        << p;
    EXPECT_DOUBLE_EQ(metrics[i].robustness, engine.win_rate_of(p, 0.5)) << p;
    EXPECT_DOUBLE_EQ(metrics[i].aggressiveness,
                     engine.win_rate_of(p, config.minority_fraction))
        << p;
  }
  EXPECT_TRUE(engine.quantify(3, 3).empty());
  EXPECT_THROW(engine.quantify(5, 4), std::invalid_argument);
  EXPECT_THROW(engine.quantify(0, 10), std::invalid_argument);
}

// ------------------------------------ sweep determinism & golden bytes ----

/// The scale knobs of one PRA determinism/fingerprint scenario.
struct SliceScale {
  std::size_t rounds = 120;
  std::size_t performance_runs = 3;
  std::size_t encounter_runs = 1;
};

/// Which round model computes a slice: the production engine behind
/// SwarmingModel, or the dense oracle behind DenseSwarmingModel.
enum class SliceEngine { kSparse, kDenseOracle };

/// Computes a small PRA slice over named protocols with the real simulator
/// and returns its raw metrics as exact_number rows, the form a sweep job
/// writes to its manifest and a resumed sweep trusts. `passes` lets a
/// caller run the same batch repeatedly on one engine (so the second pass
/// reuses the pool's thread-local simulation workspaces).
std::string pra_slice_bytes(SliceEngine slice_engine, std::size_t threads,
                            const SliceScale& scale, std::size_t passes = 1) {
  swarming::SimulationConfig sim;
  sim.rounds = scale.rounds;
  const swarming::SwarmingModel sparse(
      sim, swarming::BandwidthDistribution::piatek());
  const swarming::oracle::DenseSwarmingModel dense(
      sim, swarming::BandwidthDistribution::piatek());
  const core::EncounterModel& model =
      slice_engine == SliceEngine::kDenseOracle
          ? static_cast<const core::EncounterModel&>(dense)
          : sparse;
  const core::SubspaceModel subset(
      model, {swarming::encode_protocol(swarming::bittorrent_protocol()),
              swarming::encode_protocol(swarming::birds_protocol()),
              swarming::encode_protocol(swarming::loyal_when_needed_protocol()),
              swarming::encode_protocol(swarming::sort_s_protocol())});
  core::PraConfig config;
  config.population = 20;
  config.performance_runs = scale.performance_runs;
  config.encounter_runs = scale.encounter_runs;
  config.seed = 2011;
  config.threads = threads;
  const core::PraEngine engine(subset, config);

  std::vector<core::ProtocolMetrics> metrics;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    metrics = engine.quantify(0, subset.protocol_count());
  }
  std::string bytes;
  for (std::uint32_t i = 0; i < metrics.size(); ++i) {
    bytes += std::to_string(i) + ',' +
             util::exact_number(metrics[i].raw_performance) + ',' +
             util::exact_number(metrics[i].robustness) + ',' +
             util::exact_number(metrics[i].aggressiveness) + '\n';
  }
  return bytes;
}

TEST(PraDeterminism, ThreadCountAndWorkspaceReuseDoNotChangeBytes) {
  // The same slice computed with 1 thread, 4 threads, and on an engine
  // whose pool (and thread-local workspaces) already ran the batch must
  // produce byte-identical rows — scheduling and workspace reuse are
  // invisible in the numbers.
  const SliceScale scale;
  const std::string one_thread =
      pra_slice_bytes(SliceEngine::kSparse, 1, scale);
  const std::string four_threads =
      pra_slice_bytes(SliceEngine::kSparse, 4, scale);
  const std::string reused_workspace =
      pra_slice_bytes(SliceEngine::kSparse, 4, scale, /*passes=*/2);
  EXPECT_FALSE(one_thread.empty());
  EXPECT_EQ(one_thread, four_threads);
  EXPECT_EQ(one_thread, reused_workspace);
}

TEST(PraGoldenFingerprint, SparseMatchesDenseAtDefaultScale) {
  // The dense oracle is the seed implementation's hot path, byte for byte;
  // equality of the exact rows is the golden-fingerprint guarantee that
  // the optimized sweep changed nothing at the default DSA_* scale.
  const SliceScale scale;  // default-scale knobs: 120 rounds, 3+1 runs
  EXPECT_EQ(pra_slice_bytes(SliceEngine::kSparse, 2, scale),
            pra_slice_bytes(SliceEngine::kDenseOracle, 2, scale));
}

TEST(PraGoldenFingerprint, SparseMatchesDenseAtFullSubsetScale) {
  // DSA_FULL-subset scale: the paper-fidelity 500 rounds and 10 encounter
  // runs, on the named-protocol subset so the test stays tier-1 fast.
  SliceScale scale;
  scale.rounds = 500;
  scale.performance_runs = 10;
  scale.encounter_runs = 10;
  EXPECT_EQ(pra_slice_bytes(SliceEngine::kSparse, 2, scale),
            pra_slice_bytes(SliceEngine::kDenseOracle, 2, scale));
}

}  // namespace

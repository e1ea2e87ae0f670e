// Tests for src/core: generic design spaces, the PRA engine (exercised on a
// fully deterministic toy model so every score is predictable), subspace
// views, seed derivation, and the heuristic search.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <thread>
#include <vector>

#include "core/design_space.hpp"
#include "core/model.hpp"
#include "core/pra.hpp"
#include "core/search.hpp"
#include "core/subspace.hpp"
#include "util/rng.hpp"

namespace {

using namespace dsa::core;

// --------------------------------------------------------- DesignSpace ----

TEST(DesignSpace, SizeIsProductOfLevels) {
  DesignSpace space;
  space.add_dimension("a", {"x", "y"});
  space.add_dimension("b", {"1", "2", "3"});
  space.add_dimension("c", {"p", "q", "r", "s"});
  EXPECT_EQ(space.size(), 24u);
  EXPECT_EQ(space.dimension_count(), 3u);
}

TEST(DesignSpace, EncodeDecodeRoundTripsWholeSpace) {
  DesignSpace space;
  space.add_dimension("a", {"x", "y"});
  space.add_dimension("b", {"1", "2", "3"});
  space.add_dimension("c", {"p", "q"});
  for (std::uint64_t id = 0; id < space.size(); ++id) {
    const auto levels = space.decode(id);
    EXPECT_EQ(space.encode(levels), id);
  }
}

TEST(DesignSpace, DescribeNamesEveryDimension) {
  DesignSpace space;
  space.add_dimension("Selection", {"Random", "Best"});
  space.add_dimension("Periodicity", {"Slow", "Fast"});
  const std::string text = space.describe(3);
  EXPECT_EQ(text, "Selection=Best, Periodicity=Fast");
}

TEST(DesignSpace, ErrorsOnBadInput) {
  DesignSpace space;
  EXPECT_THROW(space.add_dimension("empty", {}), std::invalid_argument);
  space.add_dimension("a", {"x", "y"});
  EXPECT_THROW(space.decode(2), std::out_of_range);
  const std::vector<std::size_t> too_many{0, 0};
  EXPECT_THROW((void)space.encode(too_many), std::invalid_argument);
  const std::vector<std::size_t> bad_level{5};
  EXPECT_THROW((void)space.encode(bad_level), std::invalid_argument);
}

TEST(DesignSpace, EmptySpaceHasSizeOne) {
  DesignSpace space;
  EXPECT_EQ(space.size(), 1u);
}

// ------------------------------------------------------------ ToyModel ----

/// Deterministic domain: protocol i has strength s_i; groups score their own
/// strength regardless of mix, so tournament outcomes are exactly the
/// strength ordering.
class ToyModel final : public EncounterModel {
 public:
  explicit ToyModel(std::vector<double> strengths)
      : strengths_(std::move(strengths)) {}

  [[nodiscard]] std::uint32_t protocol_count() const override {
    return static_cast<std::uint32_t>(strengths_.size());
  }
  [[nodiscard]] std::string protocol_name(std::uint32_t id) const override {
    return "toy-" + std::to_string(id);
  }
  [[nodiscard]] double homogeneous_utility(std::uint32_t p, std::size_t,
                                           std::uint64_t) const override {
    ++homogeneous_calls;
    return strengths_.at(p);
  }
  [[nodiscard]] std::pair<double, double> mixed_utilities(
      std::uint32_t a, std::uint32_t b, std::size_t count_a,
      std::size_t count_b, std::uint64_t) const override {
    last_count_a = count_a;
    last_count_b = count_b;
    return {strengths_.at(a), strengths_.at(b)};
  }

  mutable std::atomic<std::size_t> homogeneous_calls{0};
  mutable std::atomic<std::size_t> last_count_a{0};
  mutable std::atomic<std::size_t> last_count_b{0};

 private:
  std::vector<double> strengths_;
};

// ----------------------------------------------------------- PraEngine ----

TEST(PraEngine, PerformanceIsNormalizedStrength) {
  ToyModel model({10.0, 40.0, 20.0, 0.0});
  PraConfig config;
  config.performance_runs = 2;
  config.encounter_runs = 1;
  const PraScores scores = PraEngine(model, config).run();
  ASSERT_EQ(scores.performance.size(), 4u);
  EXPECT_DOUBLE_EQ(scores.performance[0], 0.25);
  EXPECT_DOUBLE_EQ(scores.performance[1], 1.0);
  EXPECT_DOUBLE_EQ(scores.performance[2], 0.5);
  EXPECT_DOUBLE_EQ(scores.performance[3], 0.0);
  EXPECT_DOUBLE_EQ(scores.raw_performance[1], 40.0);
}

TEST(PraEngine, TournamentWinRatesFollowStrengthOrder) {
  ToyModel model({10.0, 40.0, 20.0, 30.0});
  PraConfig config;
  config.performance_runs = 1;
  config.encounter_runs = 3;
  const PraScores scores = PraEngine(model, config).run();
  // Protocol 1 beats all 3 others; protocol 0 beats none.
  EXPECT_DOUBLE_EQ(scores.robustness[1], 1.0);
  EXPECT_DOUBLE_EQ(scores.robustness[0], 0.0);
  EXPECT_NEAR(scores.robustness[2], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(scores.robustness[3], 2.0 / 3.0, 1e-12);
  // With strength-only outcomes Aggressiveness equals Robustness.
  EXPECT_EQ(scores.robustness, scores.aggressiveness);
}

TEST(PraEngine, TiesCountAsLosses) {
  ToyModel model({5.0, 5.0});
  PraConfig config;
  config.performance_runs = 1;
  config.encounter_runs = 2;
  const auto robustness = PraEngine(model, config).tournament(0.5);
  EXPECT_DOUBLE_EQ(robustness[0], 0.0);
  EXPECT_DOUBLE_EQ(robustness[1], 0.0);
}

TEST(PraEngine, MinoritySplitUsesRequestedFraction) {
  ToyModel model({1.0, 2.0});
  PraConfig config;
  config.population = 50;
  config.performance_runs = 1;
  config.encounter_runs = 1;
  config.minority_fraction = 0.1;
  PraEngine engine(model, config);
  (void)engine.tournament(0.1);
  // 10% of 50 = 5 peers run Pi.
  EXPECT_EQ(model.last_count_a.load(), 5u);
  EXPECT_EQ(model.last_count_b.load(), 45u);
  (void)engine.tournament(0.9);
  EXPECT_EQ(model.last_count_a.load(), 45u);
  EXPECT_EQ(model.last_count_b.load(), 5u);
}

TEST(PraEngine, SplitNeverEmptiesAGroup) {
  ToyModel model({1.0, 2.0});
  PraConfig config;
  config.population = 4;
  config.performance_runs = 1;
  config.encounter_runs = 1;
  PraEngine engine(model, config);
  (void)engine.tournament(0.001);  // would round to 0 without clamping
  EXPECT_EQ(model.last_count_a.load(), 1u);
  (void)engine.tournament(0.999);  // would round to population
  EXPECT_EQ(model.last_count_a.load(), 3u);
}

TEST(PraEngine, OpponentSamplingPreservesExtremes) {
  std::vector<double> strengths(40);
  std::iota(strengths.begin(), strengths.end(), 1.0);
  ToyModel model(strengths);
  PraConfig config;
  config.performance_runs = 1;
  config.encounter_runs = 1;
  config.opponent_sample = 7;
  const auto robustness = PraEngine(model, config).tournament(0.5);
  EXPECT_DOUBLE_EQ(robustness.back(), 1.0);   // strongest beats any sample
  EXPECT_DOUBLE_EQ(robustness.front(), 0.0);  // weakest loses to any sample
}

TEST(PraEngine, RejectsDegenerateConfigs) {
  ToyModel model({1.0, 2.0});
  PraConfig config;
  config.population = 1;
  EXPECT_THROW(PraEngine(model, config), std::invalid_argument);
  config = PraConfig{};
  config.performance_runs = 0;
  EXPECT_THROW(PraEngine(model, config), std::invalid_argument);
  config = PraConfig{};
  config.minority_fraction = 1.0;
  EXPECT_THROW(PraEngine(model, config), std::invalid_argument);
  ToyModel tiny({1.0});
  EXPECT_THROW(PraEngine(tiny, PraConfig{}), std::invalid_argument);
  PraEngine ok(model, PraConfig{});
  EXPECT_THROW(ok.tournament(0.0), std::invalid_argument);
  EXPECT_THROW(ok.tournament(1.0), std::invalid_argument);
}

/// The opponent sample as first specified: materialize every other protocol
/// ascending, run a seeded partial Fisher-Yates over the whole list, keep
/// the first k. O(P) per protocol; opponents_of must draw the same sample
/// without materializing the list.
std::vector<std::uint32_t> materialized_opponents(std::uint32_t count,
                                                  std::uint32_t p,
                                                  std::size_t k,
                                                  std::uint64_t seed) {
  std::vector<std::uint32_t> all;
  for (std::uint32_t o = 0; o < count; ++o) {
    if (o != p) all.push_back(o);
  }
  if (k == 0 || k >= all.size()) return all;
  dsa::util::Rng rng(derive_seed(seed, /*tag=*/0xA11, p, 0));
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.below(all.size() - i));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

TEST(PraEngine, OpponentSampleMatchesMaterializedFisherYates) {
  for (const std::uint32_t count : {3u, 100u, 3270u}) {
    const ToyModel model(std::vector<double>(count, 1.0));
    for (const std::size_t k : {std::size_t{1}, std::size_t{4},
                                std::size_t{24}, std::size_t{count - 2}}) {
      PraConfig config;
      config.opponent_sample = k;
      config.seed = 2011 + count;
      const PraEngine engine(model, config);
      const std::uint32_t stride = count > 1000 ? 37 : 1;
      for (std::uint32_t p = 0; p < count; p += stride) {
        ASSERT_EQ(engine.opponents_of(p),
                  materialized_opponents(count, p, k, config.seed))
            << "P=" << count << " k=" << k << " p=" << p;
      }
      EXPECT_EQ(engine.opponents_of(count - 1),
                materialized_opponents(count, count - 1, k, config.seed));
    }
  }
  const ToyModel model({1.0, 2.0});
  EXPECT_THROW((void)PraEngine(model, PraConfig{}).opponents_of(2),
               std::invalid_argument);
}

std::size_t process_thread_count() {
  namespace fs = std::filesystem;
  const auto tasks = fs::directory_iterator("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(fs::begin(tasks), fs::end(tasks)));
}

TEST(PraEngine, SingleThreadQuantifyStartsNoThread) {
  ToyModel model({1.0, 2.0, 3.0, 4.0});
  PraConfig config;
  config.performance_runs = 2;
  config.encounter_runs = 2;
  config.opponent_sample = 2;
  config.threads = 1;
  const std::size_t before = process_thread_count();
  const PraEngine engine(model, config);
  const std::vector<ProtocolMetrics> metrics = engine.quantify(2, 3);
  EXPECT_EQ(process_thread_count(), before);
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(metrics[0].raw_performance, 3.0);
  EXPECT_EQ(metrics[0].robustness, engine.win_rate_of(2, 0.5));
}

TEST(PraEngine, ThreadsCountTheCallingThread) {
  ToyModel model({1.0, 2.0, 3.0, 4.0});
  PraConfig config;
  config.performance_runs = 2;
  config.encounter_runs = 2;
  config.opponent_sample = 2;
  config.threads = 3;
  // A sanitizer runtime starts its own helper thread at the first thread
  // creation; start it before taking the baseline.
  std::thread([] {}).join();
  const std::size_t before = process_thread_count();
  const PraEngine engine(model, config);
  (void)engine.quantify(2, 3);
  // The pool quantify built lives as long as the engine: 3 lanes are this
  // thread and 2 workers.
  EXPECT_EQ(process_thread_count(), before + 2);
}

TEST(DeriveSeed, DistinguishesEveryCoordinate) {
  const auto base = derive_seed(1, 2, 3, 4);
  EXPECT_EQ(base, derive_seed(1, 2, 3, 4));
  EXPECT_NE(base, derive_seed(2, 2, 3, 4));
  EXPECT_NE(base, derive_seed(1, 3, 3, 4));
  EXPECT_NE(base, derive_seed(1, 2, 4, 4));
  EXPECT_NE(base, derive_seed(1, 2, 3, 5));
}

// ------------------------------------------------------- SubspaceModel ----

TEST(SubspaceModel, RemapsIdsToBaseSpace) {
  ToyModel base({10.0, 20.0, 30.0, 40.0});
  SubspaceModel subset(base, {3, 1});
  EXPECT_EQ(subset.protocol_count(), 2u);
  EXPECT_DOUBLE_EQ(subset.homogeneous_utility(0, 10, 1), 40.0);
  EXPECT_DOUBLE_EQ(subset.homogeneous_utility(1, 10, 1), 20.0);
  EXPECT_EQ(subset.member(0), 3u);
  const auto [a, b] = subset.mixed_utilities(0, 1, 5, 5, 1);
  EXPECT_DOUBLE_EQ(a, 40.0);
  EXPECT_DOUBLE_EQ(b, 20.0);
  EXPECT_EQ(subset.protocol_name(0), "toy-3");
}

TEST(SubspaceModel, WorksInsidePraEngine) {
  ToyModel base({10.0, 20.0, 30.0, 40.0});
  SubspaceModel subset(base, {0, 3});
  PraConfig config;
  config.performance_runs = 1;
  config.encounter_runs = 1;
  const PraScores scores = PraEngine(subset, config).run();
  EXPECT_DOUBLE_EQ(scores.performance[0], 0.25);
  EXPECT_DOUBLE_EQ(scores.robustness[1], 1.0);
}

TEST(SubspaceModel, RejectsBadMembers) {
  ToyModel base({1.0, 2.0});
  EXPECT_THROW(SubspaceModel(base, {0}), std::invalid_argument);
  EXPECT_THROW(SubspaceModel(base, {0, 2}), std::invalid_argument);
  EXPECT_THROW(SubspaceModel(base, {0, 0}), std::invalid_argument);
  SubspaceModel ok(base, {0, 1});
  EXPECT_THROW((void)ok.member(5), std::out_of_range);
  EXPECT_THROW((void)ok.homogeneous_utility(2, 10, 1), std::out_of_range);
}

// ----------------------------------------------------- HeuristicSearch ----

TEST(HeuristicSearch, FindsTheStrongestProtocol) {
  std::vector<double> strengths(60);
  std::iota(strengths.begin(), strengths.end(), 1.0);
  ToyModel model(strengths);
  SearchConfig config;
  config.restarts = 3;
  config.steps_per_restart = 60;
  NeighborFn neighbor = [&model](std::uint32_t current, dsa::util::Rng& rng) {
    std::uint32_t next;
    do {
      next = static_cast<std::uint32_t>(rng.below(model.protocol_count()));
    } while (next == current);
    return next;
  };
  HeuristicSearch search(model, neighbor, config);
  const SearchResult result = search.run();
  EXPECT_EQ(result.best_protocol, 59u);
  EXPECT_GT(result.best_objective, 0.9);
  EXPECT_GE(result.evaluations, 2u);
  ASSERT_FALSE(result.trajectory.empty());
  // Trajectory objectives improve within each climb's appended entries.
  EXPECT_EQ(result.trajectory.back().first, result.best_protocol);
}

TEST(HeuristicSearch, EvaluatesFarFewerProtocolsThanExhaustive) {
  std::vector<double> strengths(500);
  std::iota(strengths.begin(), strengths.end(), 1.0);
  ToyModel model(strengths);
  SearchConfig config;
  config.restarts = 2;
  config.steps_per_restart = 30;
  HeuristicSearch search(
      model,
      [&model](std::uint32_t, dsa::util::Rng& rng) {
        return static_cast<std::uint32_t>(rng.below(model.protocol_count()));
      },
      config);
  const SearchResult result = search.run();
  EXPECT_LT(result.evaluations, 100u);
}

TEST(HeuristicSearch, ObjectiveIsMemoized) {
  ToyModel model({1.0, 2.0, 3.0});
  SearchConfig config;
  HeuristicSearch search(
      model,
      [](std::uint32_t, dsa::util::Rng&) { return std::uint32_t{0}; },
      config);
  (void)search.objective(2);
  const auto calls_after_first = model.homogeneous_calls.load();
  (void)search.objective(2);
  EXPECT_EQ(model.homogeneous_calls.load(), calls_after_first);
}

TEST(HeuristicSearch, ValidatesConfiguration) {
  ToyModel model({1.0, 2.0});
  SearchConfig config;
  EXPECT_THROW(HeuristicSearch(model, nullptr, config),
               std::invalid_argument);
  NeighborFn neighbor = [](std::uint32_t, dsa::util::Rng&) {
    return std::uint32_t{0};
  };
  config.restarts = 0;
  EXPECT_THROW(HeuristicSearch(model, neighbor, config),
               std::invalid_argument);
  config = SearchConfig{};
  config.performance_weight = 1.5;
  EXPECT_THROW(HeuristicSearch(model, neighbor, config),
               std::invalid_argument);
  config = SearchConfig{};
  config.reference_protocol = 9;
  EXPECT_THROW(HeuristicSearch(model, neighbor, config),
               std::invalid_argument);
}

TEST(HeuristicSearch, BadNeighborIsReported) {
  ToyModel model({1.0, 2.0});
  SearchConfig config;
  HeuristicSearch search(
      model,
      [](std::uint32_t, dsa::util::Rng&) { return std::uint32_t{99}; },
      config);
  EXPECT_THROW(search.run(), std::out_of_range);
}

}  // namespace

// Tests for the piece-level swarm simulator (Sec. 5 validation substrate):
// completion, determinism, piece accounting, departures, client variants,
// and the experiment helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "swarm/swarm_sim.hpp"

namespace {

using namespace dsa::swarm;

SwarmConfig small_config(std::uint64_t seed = 1) {
  SwarmConfig config;
  config.piece_count = 20;  // 20 x 64 KB keeps unit tests snappy
  config.seed = seed;
  return config;
}

std::vector<ClientVariant> uniform(std::size_t n, ClientVariant v) {
  return std::vector<ClientVariant>(n, v);
}

// ------------------------------------------------------- fundamentals ----

TEST(Swarm, AllVariantsCompleteAHomogeneousSwarm) {
  for (ClientVariant v :
       {ClientVariant::kBitTorrent, ClientVariant::kBirds,
        ClientVariant::kLoyalWhenNeeded, ClientVariant::kSortSlowest,
        ClientVariant::kRandomRank}) {
    const auto result = run_swarm(uniform(12, v),
                                  std::vector<double>(12, 80.0),
                                  small_config());
    EXPECT_TRUE(result.all_completed) << to_string(v);
    for (double t : result.completion_time) {
      EXPECT_GT(t, 0.0) << to_string(v);
    }
  }
}

TEST(Swarm, DeterministicForSameSeed) {
  const auto leechers = uniform(15, ClientVariant::kBitTorrent);
  const std::vector<double> caps(15, 60.0);
  const auto a = run_swarm(leechers, caps, small_config(9));
  const auto b = run_swarm(leechers, caps, small_config(9));
  EXPECT_EQ(a.completion_time, b.completion_time);
}

TEST(Swarm, DifferentSeedsDiffer) {
  const auto leechers = uniform(15, ClientVariant::kBitTorrent);
  const std::vector<double> caps(15, 60.0);
  const auto a = run_swarm(leechers, caps, small_config(1));
  const auto b = run_swarm(leechers, caps, small_config(2));
  EXPECT_NE(a.completion_time, b.completion_time);
}

TEST(Swarm, ValidatesInput) {
  const SwarmConfig config = small_config();
  EXPECT_THROW(run_swarm({}, {}, config), std::invalid_argument);
  EXPECT_THROW(run_swarm(uniform(2, ClientVariant::kBitTorrent), {1.0},
                         config),
               std::invalid_argument);
  EXPECT_THROW(run_swarm(uniform(1, ClientVariant::kBitTorrent), {0.0},
                         config),
               std::invalid_argument);
  SwarmConfig bad = config;
  bad.piece_count = 0;
  EXPECT_THROW(run_swarm(uniform(1, ClientVariant::kBitTorrent), {1.0}, bad),
               std::invalid_argument);
  bad = config;
  bad.rechoke_interval = 0;
  EXPECT_THROW(run_swarm(uniform(1, ClientVariant::kBitTorrent), {1.0}, bad),
               std::invalid_argument);
  EXPECT_THROW(run_mixed_swarm(ClientVariant::kBirds,
                               ClientVariant::kBitTorrent, 5, 4, config),
               std::invalid_argument);
}

TEST(Swarm, SingleLeecherIsSeederBound) {
  // One leecher served by the 128 KBps seeder: 20 pieces x 64 KB = 1280 KB
  // should take at least 1280 / 128 = 10 seconds.
  const auto result = run_swarm(uniform(1, ClientVariant::kBitTorrent),
                                {1000.0}, small_config());
  ASSERT_TRUE(result.all_completed);
  EXPECT_GE(result.completion_time[0], 10.0);
  // ... and not dramatically more (the seeder serves it continuously).
  EXPECT_LE(result.completion_time[0], 40.0);
}

TEST(Swarm, DownloadTimeRespectsFileSizeLowerBound) {
  // Nobody can finish faster than the seeder can emit the full file once.
  SwarmConfig config = small_config(3);
  const auto result = run_swarm(uniform(10, ClientVariant::kBitTorrent),
                                std::vector<double>(10, 500.0), config);
  ASSERT_TRUE(result.all_completed);
  const double file_kb =
      static_cast<double>(config.piece_count) * config.piece_size_kb;
  const double min_time = file_kb / config.seeder_capacity_kbps;
  for (double t : result.completion_time) {
    EXPECT_GE(t, min_time * 0.999);
  }
}

TEST(Swarm, FasterSwarmFinishesSooner) {
  const auto slow = run_swarm(uniform(10, ClientVariant::kBitTorrent),
                              std::vector<double>(10, 20.0), small_config(5));
  const auto fast = run_swarm(uniform(10, ClientVariant::kBitTorrent),
                              std::vector<double>(10, 200.0),
                              small_config(5));
  ASSERT_TRUE(slow.all_completed);
  ASSERT_TRUE(fast.all_completed);
  EXPECT_LT(fast.group_mean_time(0, 10, 1e9),
            slow.group_mean_time(0, 10, 1e9));
}

TEST(Swarm, MaxTicksCapMarksUnfinishedLeechers) {
  SwarmConfig config = small_config();
  config.max_ticks = 5;  // far too short to finish
  const auto result = run_swarm(uniform(8, ClientVariant::kBitTorrent),
                                std::vector<double>(8, 50.0), config);
  EXPECT_FALSE(result.all_completed);
  for (double t : result.completion_time) {
    EXPECT_LT(t, 0.0);
  }
  // Unfinished leechers count as the cap in group means.
  EXPECT_DOUBLE_EQ(result.group_mean_time(0, 8, 123.0), 123.0);
}

TEST(Swarm, GroupMeanTimeChecksRange) {
  SwarmResult result;
  result.completion_time = {10.0, 20.0, -1.0};
  EXPECT_DOUBLE_EQ(result.group_mean_time(0, 2, 100.0), 15.0);
  EXPECT_DOUBLE_EQ(result.group_mean_time(2, 3, 100.0), 100.0);
  EXPECT_THROW((void)result.group_mean_time(1, 1, 100.0),
               std::invalid_argument);
  EXPECT_THROW((void)result.group_mean_time(0, 4, 100.0),
               std::invalid_argument);
}

// ------------------------------------------------------------ variants ----

TEST(Swarm, MixedSwarmAssignsGroupsInOrder) {
  SwarmConfig config = small_config(7);
  const auto result = run_mixed_swarm(ClientVariant::kBirds,
                                      ClientVariant::kBitTorrent, 4, 12,
                                      config);
  EXPECT_EQ(result.completion_time.size(), 12u);
  EXPECT_TRUE(result.all_completed);
}

TEST(Swarm, HeterogeneousCapacitiesFavorFastPeersUnderBitTorrent) {
  // With fastest-first reciprocation, high-capacity leechers cluster with
  // each other (Legout et al.) and finish sooner on average. The effect is
  // modest in a seeder-bound swarm, so this runs at the paper's full scale
  // (50 leechers, 80-piece file) over 10 seeds.
  SwarmConfig config;
  std::vector<ClientVariant> leechers(50, ClientVariant::kBitTorrent);
  std::vector<double> caps;
  for (int i = 0; i < 25; ++i) caps.push_back(20.0);
  for (int i = 0; i < 25; ++i) caps.push_back(400.0);
  double slow_mean = 0.0, fast_mean = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    config.seed = seed;
    const auto result = run_swarm(leechers, caps, config);
    slow_mean += result.group_mean_time(0, 25, config.max_ticks);
    fast_mean += result.group_mean_time(25, 50, config.max_ticks);
  }
  EXPECT_LT(fast_mean, slow_mean);
}

TEST(Swarm, SortSlowestUsesOneSlotAndStillCompletes) {
  const auto result = run_swarm(uniform(10, ClientVariant::kSortSlowest),
                                std::vector<double>(10, 100.0),
                                small_config(13));
  EXPECT_TRUE(result.all_completed);
}

TEST(Swarm, VariantNamesAreStable) {
  EXPECT_EQ(to_string(ClientVariant::kBitTorrent), "BitTorrent");
  EXPECT_EQ(to_string(ClientVariant::kBirds), "Birds");
  EXPECT_EQ(to_string(ClientVariant::kLoyalWhenNeeded), "Loyal-When-needed");
  EXPECT_EQ(to_string(ClientVariant::kSortSlowest), "Sort-S");
  EXPECT_EQ(to_string(ClientVariant::kRandomRank), "Random");
}

class VariantPairSweep
    : public ::testing::TestWithParam<std::pair<ClientVariant, ClientVariant>> {
};

TEST_P(VariantPairSweep, MixedSwarmsComplete) {
  const auto [a, b] = GetParam();
  SwarmConfig config = small_config(17);
  const auto result = run_mixed_swarm(a, b, 6, 12, config);
  EXPECT_TRUE(result.all_completed)
      << to_string(a) << " vs " << to_string(b);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, VariantPairSweep,
    ::testing::Values(
        std::pair{ClientVariant::kBitTorrent, ClientVariant::kBirds},
        std::pair{ClientVariant::kBitTorrent,
                  ClientVariant::kLoyalWhenNeeded},
        std::pair{ClientVariant::kBirds, ClientVariant::kLoyalWhenNeeded},
        std::pair{ClientVariant::kSortSlowest, ClientVariant::kBitTorrent},
        std::pair{ClientVariant::kRandomRank, ClientVariant::kBirds}));

// ---------------------------------------------------- paper Sec. 5 shape ----

TEST(Swarm, LoyalWhenNeededNeverDoesWorseThanBitTorrentAcrossMixes) {
  // Fig. 9(a)'s qualitative claim, at reduced scale: Loyal-When-needed's
  // average download time stays within a few percent of BitTorrent's in
  // any mix.
  SwarmConfig config;  // full 80-piece file, as in the paper
  double loyal_total = 0.0, bt_total = 0.0;
  for (std::size_t count_loyal : {12u, 25u, 38u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      config.seed = seed * 31 + count_loyal;
      const auto result =
          run_mixed_swarm(ClientVariant::kLoyalWhenNeeded,
                          ClientVariant::kBitTorrent, count_loyal, 50,
                          config);
      loyal_total += result.group_mean_time(0, count_loyal, config.max_ticks);
      bt_total += result.group_mean_time(count_loyal, 50, config.max_ticks);
    }
  }
  EXPECT_LT(loyal_total, bt_total * 1.05);
}

}  // namespace

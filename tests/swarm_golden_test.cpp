// Bitwise golden pins for the piece-level swarm (Sec. 5 validation
// substrate). Each case hashes the raw bytes of every per-leecher output
// (completion time, uploaded and downloaded KB), every FaultStats field and,
// when recorded, the per-tick series. The expected hashes were recorded
// before the engine's piece maps moved to bitsets, and those of the
// hand-built lossy crash/outage and staggered-arrival cases on the engine
// that still had piece timeouts, with no timeout set. Any change to
// rarest-first choice, RNG consumption or fault bookkeeping shows up here as
// a hash mismatch.
//
// The grid covers all five variants, piece counts on both sides of every
// 64-bit word boundary, generated fault plans across the intensity dial,
// hand-built plans with loss, crashes and seeder outages, staggered arrivals
// and the series. The choke-round knobs (regular and seeder slots, the
// optimistic period, the re-choke interval) and a large mixed five-variant
// swarm were pinned on the engine whose choke round still walked every pair
// and whose rarest-first scan was split in two at the drawn offset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "swarm/swarm_sim.hpp"
#include "swarming/bandwidth.hpp"

namespace {

using namespace dsa::swarm;

constexpr ClientVariant kVariants[] = {
    ClientVariant::kBitTorrent, ClientVariant::kBirds,
    ClientVariant::kLoyalWhenNeeded, ClientVariant::kSortSlowest,
    ClientVariant::kRandomRank};

/// FNV-1a over raw object bytes.
class ByteHash {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      h_ = (h_ ^ b) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(values.size());
    for (const T& v : values) add(v);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t result_hash(const SwarmResult& result) {
  ByteHash h;
  h.add_all(result.completion_time);
  h.add_all(result.uploaded_kb);
  h.add_all(result.downloaded_kb);
  h.add(result.all_completed);
  const FaultStats& s = result.fault_stats;
  h.add(s.messages_lost);
  h.add(s.lost_kb);
  h.add(s.retries_issued);
  h.add(s.crashes);
  h.add(s.pieces_wiped);
  h.add(s.stall_ticks);
  h.add(s.seeder_down_ticks);
  h.add(s.mean_seeder_recovery_ticks);
  h.add(result.series.size());
  for (const SwarmTick& tick : result.series) {
    h.add(tick.active_leechers);
    h.add(tick.completed_leechers);
    h.add(tick.transferred_kb);
    h.add(tick.mean_progress);
  }
  return h.value();
}

/// Compares a grid's hashes against the recorded ones, naming each
/// mismatching case; prints the full actual list for re-recording.
void expect_hashes(const std::vector<std::uint64_t>& actual,
                   const std::vector<std::uint64_t>& expected) {
  std::ostringstream listing;
  listing << std::hex;
  for (std::uint64_t v : actual) listing << "0x" << v << "ULL,\n";
  ASSERT_EQ(actual.size(), expected.size()) << "actual hashes:\n"
                                            << listing.str();
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "case " << i;
  }
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "actual hashes:\n" << listing.str();
  }
}

SwarmConfig config_for(std::size_t pieces, std::uint64_t seed) {
  SwarmConfig config;
  config.piece_count = pieces;
  config.seed = seed;
  return config;
}

TEST(SwarmGolden, VariantsAcrossPieceWordBoundaries) {
  std::vector<std::uint64_t> actual;
  std::uint64_t seed = 100;
  for (std::size_t pieces : {1, 20, 63, 64, 65, 80, 130}) {
    for (std::size_t v = 0; v < 5; ++v) {
      SwarmConfig config = config_for(pieces, ++seed);
      config.max_ticks = 3000;
      actual.push_back(result_hash(run_mixed_swarm(
          kVariants[v], kVariants[(v + 1) % 5], 6, 14, config)));
    }
  }
  expect_hashes(actual, {
      0x42acd9539ae7949bULL,
      0x42acd9539ae7949bULL,
      0x42acd9539ae7949bULL,
      0x42acd9539ae7949bULL,
      0x42acd9539ae7949bULL,
      0x91acce7736faf37bULL,
      0xc696b7af7bf2d7d1ULL,
      0x1189891b69252ec9ULL,
      0xd8f1123ed17aa367ULL,
      0xfe9cbf36f89d321aULL,
      0x74ebec8ec27df5c1ULL,
      0x8bdc157e201691f4ULL,
      0xce5c65e992924a1aULL,
      0x8335aab5b4d43ed0ULL,
      0xb8270705f728fde0ULL,
      0xc46d915197bedc7fULL,
      0x776e09fbabed7a2aULL,
      0xd839bb953d865a3eULL,
      0x4097337cd9f0d71cULL,
      0x85991e1bb26d113fULL,
      0xdcba49901f1a43c2ULL,
      0xbcbf91acc86ddc74ULL,
      0x3aa3f1bcc9bba048ULL,
      0x7ac35884662bd267ULL,
      0xf30abea27ba488cfULL,
      0xb120b8c4b2032a96ULL,
      0x6b1df8a27c891ccULL,
      0xcc4e4de13a0e27dbULL,
      0x890d074771b64f7aULL,
      0xf973b290e9ec952eULL,
      0x49dcc9fed10beeb7ULL,
      0xf814f2e8c45dcff4ULL,
      0x866f2eb6642f1502ULL,
      0x124673fcecdb2a7fULL,
      0xa6a87ba4b12c127ULL,
  });
}

TEST(SwarmGolden, GeneratedFaultPlansAcrossIntensity) {
  std::vector<std::uint64_t> actual;
  std::uint64_t seed = 200;
  for (double intensity : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    for (std::size_t v : {0, 3}) {
      SwarmConfig config = config_for(80, ++seed);
      config.max_ticks = 3000;
      dsa::fault::FaultSpec spec;
      spec.intensity = intensity;
      spec.seed = seed;
      config.faults = dsa::fault::make_fault_plan(spec, 30, 600);
      actual.push_back(result_hash(run_mixed_swarm(
          kVariants[v], kVariants[(v + 2) % 5], 10, 30, config)));
    }
  }
  expect_hashes(actual, {
      0x685fd9fa0918eafaULL,
      0xf344a5e3df489b32ULL,
      0xa9cb0b6865f1413ULL,
      0x12c5ff80b18b3e75ULL,
      0x1833a1055c5f388eULL,
      0x700f48168567ec7dULL,
      0x4d71cc90202cd93bULL,
      0x682a0940d9a027c4ULL,
      0xd3845122e0faf821ULL,
      0x4ed112875bbee8acULL,
  });
}

TEST(SwarmGolden, CrashesAndOutages) {
  std::vector<std::uint64_t> actual;
  std::uint64_t seed = 400;
  std::uint64_t crashes = 0;
  std::uint64_t down = 0;
  for (std::size_t pieces : {20, 64, 130}) {
    for (std::size_t v = 0; v < 5; ++v) {
      SwarmConfig config = config_for(pieces, ++seed);
      config.max_ticks = 5000;
      config.faults.crashes = {{0, 5, 20}, {3, 30, 15}, {7, 60, 40},
                               {3, 90, 10}};
      config.faults.seeder_outages = {{15, 45}, {120, 160}};
      if (v % 2 == 1) {
        config.faults.message_loss = 0.6;
      }
      const SwarmResult result = run_mixed_swarm(
          kVariants[v], kVariants[(v + 3) % 5], 5, 12, config);
      crashes += result.fault_stats.crashes;
      down += result.fault_stats.seeder_down_ticks;
      actual.push_back(result_hash(result));
    }
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(down, 0u);
  expect_hashes(actual, {
      0x343876e7d77bb24fULL,
      0x4a135ea1115bfb23ULL,
      0x8ad3f90e4a72d74dULL,
      0xd19f9d699fb677c0ULL,
      0xa76f67a6cfb6c27eULL,
      0x487e9fdcda2dacc9ULL,
      0xf3368fcb1fb5a756ULL,
      0xc97b6c385f17ed4bULL,
      0x343256d511966c0cULL,
      0x51742442fa95d572ULL,
      0xa1dd6258e5612707ULL,
      0x5516b2a4b95db7e4ULL,
      0xf8d1fd05d99b277bULL,
      0xa343e74ff10b1822ULL,
      0xebe9677731a930b8ULL,
  });
}

TEST(SwarmGolden, StaggeredArrivalsWithSeries) {
  std::vector<std::uint64_t> actual;
  std::uint64_t seed = 500;
  for (std::size_t interval : {1, 7}) {
    for (std::size_t v = 0; v < 5; ++v) {
      SwarmConfig config = config_for(v % 2 == 0 ? 63 : 65, ++seed);
      config.max_ticks = 4000;
      config.arrival_interval = interval;
      config.record_series = true;
      if (v == 4) {
        config.faults.message_loss = 0.5;
        config.faults.crashes = {{2, 25, 10}};
      }
      actual.push_back(result_hash(run_mixed_swarm(
          kVariants[v], kVariants[(v + 4) % 5], 7, 16, config)));
    }
  }
  expect_hashes(actual, {
      0x50770bc635a780c2ULL,
      0x6875d0feea890b26ULL,
      0x2d40e98dc0ba4258ULL,
      0x424760798d77a55ULL,
      0x86eb090c1b753e3eULL,
      0x2f5473a52bb8e212ULL,
      0x998319dcefaf9291ULL,
      0x77ce7aa933d872fULL,
      0x8d211e0a06a59877ULL,
      0xa61c84074eb3276dULL,
  });
}

/// Appends the hashes of one mixed swarm per variant pairing (each variant
/// against its successor), all on one config shape adjusted by `tweak`.
template <typename Tweak>
void add_variant_pairs(std::vector<std::uint64_t>& hashes, std::uint64_t& seed,
                       Tweak tweak) {
  for (std::size_t v = 0; v < 5; ++v) {
    SwarmConfig config = config_for(v % 2 == 0 ? 40 : 70, ++seed);
    config.max_ticks = 3000;
    tweak(config);
    hashes.push_back(result_hash(run_mixed_swarm(
        kVariants[v], kVariants[(v + 1) % 5], 9, 24, config)));
  }
}

TEST(SwarmGolden, RegularSlots) {
  // 60 slots exceed the 23 other leechers: every interested peer is
  // unchoked and the optimistic slot has no one left to pick.
  std::vector<std::uint64_t> actual;
  std::uint64_t seed = 600;
  for (std::size_t slots : {1, 4, 60}) {
    add_variant_pairs(actual, seed, [&](SwarmConfig& config) {
      config.regular_slots = slots;
    });
  }
  expect_hashes(actual, {
      0x3909aeac1b1819a6ULL,
      0x47bfa08eaf1a08e2ULL,
      0x9162b599dfc53008ULL,
      0x8243c453af9e3d3dULL,
      0xb61d2be2c6e7b347ULL,
      0xda5105ea1543e65bULL,
      0x818ea2337252ee6dULL,
      0x985e230147c92ec5ULL,
      0xc50e5d1030891a86ULL,
      0xcce2f09f340c333cULL,
      0xdde04b0b68cb226dULL,
      0x6046cddf6631c52fULL,
      0x39f59d822d42d982ULL,
      0xefb1c5192eeff6f2ULL,
      0x12ac7dbda983367dULL,
  });
}

TEST(SwarmGolden, OptimisticPeriod) {
  std::vector<std::uint64_t> actual;
  std::uint64_t seed = 700;
  for (std::size_t period : {1, 3, 7}) {
    add_variant_pairs(actual, seed, [&](SwarmConfig& config) {
      config.optimistic_period = period;
    });
  }
  expect_hashes(actual, {
      0xfc2ba6a0537aed56ULL,
      0x34467ddcff0d5c81ULL,
      0xb401500c1686abf4ULL,
      0xfcd7257a78edec7bULL,
      0x1c0fb13b189cebdcULL,
      0x1418f713e9eb3279ULL,
      0x448aba7484580026ULL,
      0xa2cc9dc5cf54adacULL,
      0xf22a3f38724d4503ULL,
      0xb833a92b3f640fafULL,
      0xbfd56de10b533703ULL,
      0xc2d59bf9e434b1e4ULL,
      0x53d77e0b87ad2952ULL,
      0xe3d69ea544d4e5d0ULL,
      0xfadff8c34173592eULL,
  });
}

TEST(SwarmGolden, SeederSlots) {
  std::vector<std::uint64_t> actual;
  std::uint64_t seed = 800;
  for (std::size_t slots : {1, 3}) {
    add_variant_pairs(actual, seed, [&](SwarmConfig& config) {
      config.seeder_slots = slots;
    });
  }
  expect_hashes(actual, {
      0x88ca7284ef9aeaedULL,
      0x88951e40b365b92bULL,
      0x3052acc45034e3e3ULL,
      0x2116d26d72b52fa8ULL,
      0x2af4e92e3a17e3abULL,
      0x8b81a60ac015192fULL,
      0xb51965e1d43021c2ULL,
      0xdbed94fdfc0ae246ULL,
      0x9c2f0e78297cd68dULL,
      0x8c36eebb8300720ULL,
  });
}

TEST(SwarmGolden, RechokeInterval) {
  std::vector<std::uint64_t> actual;
  std::uint64_t seed = 900;
  for (std::size_t interval : {1, 10}) {
    add_variant_pairs(actual, seed, [&](SwarmConfig& config) {
      config.rechoke_interval = interval;
    });
  }
  expect_hashes(actual, {
      0xe66f5515ead35862ULL,
      0xf527062534d6db35ULL,
      0xb5894d09d63e0786ULL,
      0xba41e5e377e231d5ULL,
      0xdbd7dd8aaa57a509ULL,
      0xc60ba504723fc75bULL,
      0x56bc8f1f54c29f90ULL,
      0xdbd3150653dfeb93ULL,
      0xf3ab9226436344bdULL,
      0xf99899871003c495ULL,
  });
}

TEST(SwarmGolden, LargeMixedSwarmWithFaultsAndArrivals) {
  // 120 leechers cycling through all five variants, 200 pieces (four
  // words, the last one partial), staggered arrivals, crashes, two seeder
  // outages and message loss.
  constexpr std::size_t kLeechers = 120;
  std::vector<ClientVariant> leechers;
  for (std::size_t l = 0; l < kLeechers; ++l) {
    leechers.push_back(kVariants[l % 5]);
  }
  std::vector<double> capacities =
      dsa::swarming::BandwidthDistribution::piatek().stratified_sample(
          kLeechers);
  std::vector<std::uint64_t> actual;
  std::uint64_t crashes = 0;
  std::uint64_t down = 0;
  for (std::uint64_t seed : {1001, 1002}) {
    SwarmConfig config = config_for(200, seed);
    config.max_ticks = 6000;
    config.arrival_interval = 2;
    config.faults.crashes = {{4, 30, 25},  {17, 80, 10}, {55, 120, 60},
                             {4, 200, 15}, {90, 260, 5}, {119, 400, 30}};
    config.faults.seeder_outages = {{50, 90}, {300, 340}};
    config.faults.message_loss = seed == 1001 ? 0.0 : 0.3;
    const SwarmResult result = run_swarm(leechers, capacities, config);
    crashes += result.fault_stats.crashes;
    down += result.fault_stats.seeder_down_ticks;
    actual.push_back(result_hash(result));
    std::rotate(capacities.begin(), capacities.begin() + 7, capacities.end());
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(down, 0u);
  expect_hashes(actual, {
      0x2c739baca9196633ULL,
      0xc10de6b5b04fed47ULL,
  });
}

}  // namespace

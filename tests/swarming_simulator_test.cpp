// Behavioral tests of the Sec. 4.3.1 round-based simulator — the properties
// the paper's results depend on: bootstrap via strangers, Prop Share's
// bootstrap failure without them, freerider collapse, the Sort-Slowest
// effect, churn, and encounter mechanics.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_process.hpp"
#include "oracle/dense_engine.hpp"
#include "swarming/bandwidth.hpp"
#include "swarming/protocol.hpp"
#include "swarming/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace dsa::swarming;

const BandwidthDistribution& piatek() {
  static const BandwidthDistribution dist = BandwidthDistribution::piatek();
  return dist;
}

SimulationConfig quick(std::uint64_t seed = 1, std::size_t rounds = 150) {
  SimulationConfig config;
  config.rounds = rounds;
  config.seed = seed;
  return config;
}

ProtocolSpec make(StrangerPolicy sp, int h, CandidateWindow w,
                  RankingFunction rank, int k, AllocationPolicy alloc) {
  ProtocolSpec spec;
  spec.stranger_policy = sp;
  spec.stranger_slots = static_cast<std::uint8_t>(h);
  spec.window = w;
  spec.ranking = rank;
  spec.partner_slots = static_cast<std::uint8_t>(k);
  spec.allocation = alloc;
  return spec;
}

// ------------------------------------------------------- fundamentals ----

TEST(RoundSim, DeterministicForSameSeed) {
  const auto a = run_homogeneous_throughput(bittorrent_protocol(), 30,
                                            quick(42), piatek());
  const auto b = run_homogeneous_throughput(bittorrent_protocol(), 30,
                                            quick(42), piatek());
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(RoundSim, DifferentSeedsDiffer) {
  const auto a = run_homogeneous_throughput(bittorrent_protocol(), 30,
                                            quick(1), piatek());
  const auto b = run_homogeneous_throughput(bittorrent_protocol(), 30,
                                            quick(2), piatek());
  EXPECT_NE(a, b);
}

TEST(RoundSim, ValidatesInput) {
  const SimulationConfig config = quick();
  EXPECT_THROW(simulate_rounds({}, {}, config), std::invalid_argument);
  EXPECT_THROW(
      simulate_rounds({bittorrent_protocol()}, {1.0, 2.0}, config),
      std::invalid_argument);
  SimulationConfig zero_rounds = quick();
  zero_rounds.rounds = 0;
  EXPECT_THROW(simulate_rounds({bittorrent_protocol()}, {10.0}, zero_rounds),
               std::invalid_argument);
  SimulationConfig churny = quick();
  churny.churn_rate = 0.1;
  EXPECT_THROW(simulate_rounds({bittorrent_protocol()}, {10.0}, churny,
                               /*churn_source=*/nullptr),
               std::invalid_argument);
  EXPECT_THROW(run_homogeneous_throughput(bittorrent_protocol(), 0, config,
                                          piatek()),
               std::invalid_argument);
  EXPECT_THROW(run_encounter(bittorrent_protocol(), birds_protocol(), 0, 5,
                             config, piatek()),
               std::invalid_argument);
}

/// The std::invalid_argument message simulate_rounds throws for `caps`.
std::string capacity_error(const std::vector<double>& caps) {
  const std::vector<ProtocolSpec> protocols(caps.size(), bittorrent_protocol());
  try {
    (void)simulate_rounds(protocols, caps, quick(), &piatek());
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "no error";
}

TEST(RoundSim, RejectsNegativeCapacityByIndex) {
  EXPECT_EQ(capacity_error({10.0, 20.0, 30.0, -1.0, 5.0}),
            "simulate_rounds: capacities[3] must be finite and >= 0");
}

TEST(RoundSim, RejectsNanCapacityByIndex) {
  EXPECT_EQ(capacity_error({std::nan(""), 20.0}),
            "simulate_rounds: capacities[0] must be finite and >= 0");
}

TEST(RoundSim, RejectsInfiniteCapacityByIndex) {
  EXPECT_EQ(
      capacity_error({10.0, 20.0, std::numeric_limits<double>::infinity()}),
      "simulate_rounds: capacities[2] must be finite and >= 0");
  EXPECT_EQ(
      capacity_error({-std::numeric_limits<double>::infinity(), 20.0}),
      "simulate_rounds: capacities[0] must be finite and >= 0");
}

TEST(RoundSim, AcceptsZeroCapacities) {
  EXPECT_EQ(capacity_error({0.0, -0.0, 10.0}), "no error");
}

TEST(RoundSim, ThroughputNeverExceedsOfferedCapacity) {
  // Received bandwidth is conserved: population mean throughput cannot
  // exceed mean upload capacity.
  const std::vector<double> caps = piatek().stratified_sample(50);
  double cap_mean = 0.0;
  for (double c : caps) cap_mean += c;
  cap_mean /= 50.0;
  const double throughput = run_homogeneous_throughput(
      bittorrent_protocol(), 50, quick(5), piatek());
  EXPECT_LE(throughput, cap_mean * 1.0001);
  EXPECT_GT(throughput, 0.0);
}

TEST(RoundSim, BitTorrentUsesNearlyAllCapacityInSteadyState) {
  // With Equal Split and everyone running BT, every opened slot carries
  // bandwidth, so population throughput should be close to mean capacity.
  const std::vector<double> caps = piatek().stratified_sample(50);
  double cap_mean = 0.0;
  for (double c : caps) cap_mean += c;
  cap_mean /= 50.0;
  const double throughput = run_homogeneous_throughput(
      bittorrent_protocol(), 50, quick(9, 300), piatek());
  EXPECT_GT(throughput, 0.8 * cap_mean);
}

TEST(RoundSim, GroupMeanChecksRange) {
  SimulationOutcome outcome;
  outcome.peer_throughput = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(outcome.group_mean(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(outcome.group_mean(2, 4), 3.5);
  EXPECT_DOUBLE_EQ(outcome.population_mean(), 2.5);
  EXPECT_THROW((void)outcome.group_mean(2, 2), std::invalid_argument);
  EXPECT_THROW((void)outcome.group_mean(0, 9), std::invalid_argument);
}

// ---------------------------------------------- paper-critical behavior ----

TEST(RoundSim, TotalFreeridersReceiveAlmostNothingFromEachOther) {
  // Freeride allocation + Defect strangers: nobody ever uploads a byte.
  const ProtocolSpec freerider =
      make(StrangerPolicy::kDefect, 1, CandidateWindow::kTft,
           RankingFunction::kFastest, 4, AllocationPolicy::kFreeride);
  const double throughput =
      run_homogeneous_throughput(freerider, 50, quick(3), piatek());
  EXPECT_DOUBLE_EQ(throughput, 0.0);
}

TEST(RoundSim, PropShareWithDefectStrangersFailsToBootstrap) {
  // The paper's bootstrap hazard: Prop Share never seeds cooperation when
  // strangers get nothing (Sec. 4.4).
  const ProtocolSpec spec =
      make(StrangerPolicy::kDefect, 2, CandidateWindow::kTft,
           RankingFunction::kSlowest, 1, AllocationPolicy::kPropShare);
  const double throughput =
      run_homogeneous_throughput(spec, 50, quick(4), piatek());
  EXPECT_DOUBLE_EQ(throughput, 0.0);
}

TEST(RoundSim, PropShareWithWhenNeededStrangersBootstraps) {
  // ... while the When-needed stranger policy is the paper's lightweight
  // bootstrapping alternative.
  const ProtocolSpec spec =
      make(StrangerPolicy::kWhenNeeded, 2, CandidateWindow::kTft,
           RankingFunction::kFastest, 7, AllocationPolicy::kPropShare);
  const double throughput =
      run_homogeneous_throughput(spec, 50, quick(4, 300), piatek());
  EXPECT_GT(throughput, 0.0);
}

TEST(RoundSim, SortSlowestFamilyPeaksAtOnePartner) {
  // Sec. 4.4's Sort-S story in our model: within the Sort Slowest family,
  // one partner is best (the few-lanes-always-filled effect), and Sort-S
  // stays within ~15% of the BitTorrent reference. (Deviation from the
  // paper: their simulator puts Sort-S at the global performance maximum;
  // ours tops the family but not the space — see EXPERIMENTS.md.)
  auto family_perf = [&](int k) {
    ProtocolSpec spec = sort_s_protocol();
    spec.partner_slots = static_cast<std::uint8_t>(k);
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      total += run_homogeneous_throughput(spec, 50, quick(seed, 300),
                                          piatek());
    }
    return total;
  };
  const double k1 = family_perf(1);
  EXPECT_GT(k1, family_perf(3));
  double bt_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    bt_total += run_homogeneous_throughput(bittorrent_protocol(), 50,
                                           quick(seed, 300), piatek());
  }
  EXPECT_GT(k1, 0.85 * bt_total);
}

TEST(RoundSim, TopPerformersMaintainFewPartners) {
  // Fig. 3's headline: the best homogeneous performers keep k low. The
  // strongest protocol we know of (Loyal-When-needed with one partner)
  // must beat both its own high-k variant and the BitTorrent reference.
  auto perf = [&](ProtocolSpec spec) {
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      total += run_homogeneous_throughput(spec, 50, quick(seed, 300),
                                          piatek());
    }
    return total;
  };
  ProtocolSpec loyal1 = loyal_when_needed_protocol();
  loyal1.partner_slots = 1;
  ProtocolSpec loyal9 = loyal_when_needed_protocol();
  loyal9.partner_slots = 9;
  const double top = perf(loyal1);
  EXPECT_GT(top, perf(loyal9));
  EXPECT_GT(top, perf(bittorrent_protocol()));
}

TEST(RoundSim, NoPartnerNoStrangerProtocolIsInert) {
  // The doubly-degenerate protocol neither gives nor receives reciprocation;
  // in a homogeneous population nothing ever flows.
  ProtocolSpec inert;
  inert.stranger_slots = 0;
  inert.partner_slots = 0;
  const double throughput =
      run_homogeneous_throughput(inert, 30, quick(8), piatek());
  EXPECT_DOUBLE_EQ(throughput, 0.0);
}

TEST(RoundSim, RobustProtocolBeatsFreeriderInEncounter) {
  // A When-needed + Sort Fastest + Prop Share protocol (the paper's most
  // robust family) must outperform invading freeriders.
  const ProtocolSpec robust =
      make(StrangerPolicy::kWhenNeeded, 2, CandidateWindow::kTft,
           RankingFunction::kFastest, 7, AllocationPolicy::kPropShare);
  const ProtocolSpec freerider =
      make(StrangerPolicy::kPeriodic, 3, CandidateWindow::kTft,
           RankingFunction::kFastest, 9, AllocationPolicy::kFreeride);
  int robust_wins = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto outcome = run_encounter(robust, freerider, 25, 25,
                                       quick(seed, 300), piatek());
    if (outcome.a_wins()) ++robust_wins;
  }
  EXPECT_GE(robust_wins, 4);
}

TEST(RoundSim, EncounterGroupsAreOrderSymmetric) {
  // Swapping the groups swaps the reported means (same seed, same capacity
  // assignment by index).
  const auto ab = run_encounter(bittorrent_protocol(), birds_protocol(), 20,
                                30, quick(11), piatek());
  const auto ba = run_encounter(birds_protocol(), bittorrent_protocol(), 20,
                                30, quick(11), piatek());
  // Note: groups sit at different indices, so this is a sanity check that
  // both orderings produce finite, positive utilities rather than an exact
  // symmetry claim.
  EXPECT_GT(ab.group_a_mean + ab.group_b_mean, 0.0);
  EXPECT_GT(ba.group_a_mean + ba.group_b_mean, 0.0);
}

TEST(RoundSim, StrangerlessProtocolStillReceivesOptimisticContacts) {
  // h = 0 peers never contact anyone first, but periodic-stranger peers
  // find them, so in a mixed population they still bootstrap.
  ProtocolSpec hermit = bittorrent_protocol();
  hermit.stranger_slots = 0;
  const auto outcome = run_encounter(hermit, bittorrent_protocol(), 10, 40,
                                     quick(13, 300), piatek());
  EXPECT_GT(outcome.group_a_mean, 0.0);
}

TEST(RoundSim, KZeroProtocolGivesOnlyToStrangers) {
  // k = 0 with Periodic strangers: gives stranger gifts but never
  // reciprocates. Against BT it still receives optimistic contacts.
  ProtocolSpec no_partners;
  no_partners.stranger_policy = StrangerPolicy::kPeriodic;
  no_partners.stranger_slots = 3;
  no_partners.partner_slots = 0;
  const auto outcome = run_encounter(no_partners, bittorrent_protocol(), 25,
                                     25, quick(17, 300), piatek());
  EXPECT_GT(outcome.group_b_mean, 0.0);
  // BT reciprocates what the strangers gift, so group A receives something
  // too, but less than the reciprocating majority.
  EXPECT_LT(outcome.group_a_mean, outcome.group_b_mean);
}

// --------------------------------------------------------------- churn ----

TEST(RoundSim, ChurnKeepsRunningAndChangesOutcome) {
  SimulationConfig churny = quick(19, 200);
  churny.churn_rate = 0.05;
  const std::vector<ProtocolSpec> protocols(30, bittorrent_protocol());
  const std::vector<double> caps = piatek().stratified_sample(30);
  const auto with_churn =
      simulate_rounds(protocols, caps, churny, &piatek());
  const auto without =
      simulate_rounds(protocols, caps, quick(19, 200), &piatek());
  EXPECT_EQ(with_churn.peer_throughput.size(), 30u);
  EXPECT_NE(with_churn.population_mean(), without.population_mean());
  EXPECT_GT(with_churn.population_mean(), 0.0);
}

TEST(RoundSim, LowPartnerCountStillWinsUnderChurn) {
  // Sec. 4.4: "we ran Performance tests for the whole space under churn
  // rates of 0.01 and 0.1 ... it was still the protocols that employed a
  // low number of partners that performed the best." Low-k variants must
  // beat their high-k siblings at churn 0.1, and by a wider margin than at
  // churn 0 (churn punishes large partner sets hardest).
  auto perf = [&](ProtocolSpec spec, double churn) {
    SimulationConfig config = quick(0, 300);
    config.churn_rate = churn;
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      config.seed = seed;
      total += run_homogeneous_throughput(spec, 50, config, piatek());
    }
    return total / 5.0;
  };
  ProtocolSpec loyal1 = loyal_when_needed_protocol();
  loyal1.partner_slots = 1;
  ProtocolSpec loyal9 = loyal_when_needed_protocol();
  loyal9.partner_slots = 9;
  const double ratio_calm = perf(loyal1, 0.0) / perf(loyal9, 0.0);
  const double ratio_churny = perf(loyal1, 0.1) / perf(loyal9, 0.1);
  EXPECT_GT(ratio_churny, 1.0);
  EXPECT_GT(ratio_churny, ratio_calm);

  ProtocolSpec bt9 = bittorrent_protocol();
  bt9.partner_slots = 9;
  EXPECT_GT(perf(bittorrent_protocol(), 0.1), perf(bt9, 0.1));
}

// ------------------------------------------------- ranking differences ----

class RankingSweep : public ::testing::TestWithParam<RankingFunction> {};

TEST_P(RankingSweep, EveryRankingBootstrapsWithEqualSplit) {
  const ProtocolSpec spec =
      make(StrangerPolicy::kPeriodic, 1, CandidateWindow::kTft, GetParam(), 4,
           AllocationPolicy::kEqualSplit);
  const double throughput =
      run_homogeneous_throughput(spec, 40, quick(29, 200), piatek());
  EXPECT_GT(throughput, 0.0) << "ranking " << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllRankings, RankingSweep,
    ::testing::Values(RankingFunction::kFastest, RankingFunction::kSlowest,
                      RankingFunction::kProximity, RankingFunction::kAdaptive,
                      RankingFunction::kLoyal, RankingFunction::kRandom));

class WindowSweep : public ::testing::TestWithParam<CandidateWindow> {};

TEST_P(WindowSweep, BothWindowsSustainCooperation) {
  ProtocolSpec spec = bittorrent_protocol();
  spec.window = GetParam();
  const double throughput =
      run_homogeneous_throughput(spec, 40, quick(31, 200), piatek());
  EXPECT_GT(throughput, 10.0);
}

INSTANTIATE_TEST_SUITE_P(BothWindows, WindowSweep,
                         ::testing::Values(CandidateWindow::kTft,
                                           CandidateWindow::kTf2t));

// ------------------------------------------- sparse/dense equivalence ----
// The engine's contract is bitwise identity with the dense oracle (the seed
// implementation, tests/oracle), for every configuration — same RNG draw
// sequence, same floating-point operations in the same order. These tests
// compare the two on exactly the configurations where their internals
// differ most: churn (stamp invalidation vs row zeroing), faults, the intake
// cap (touched-list scaling vs row scaling), TF2T (two-generation candidate
// merge), and every ranking function (Loyal reads sparse streaks, Random
// consumes RNG draws that must stay aligned).

void expect_bitwise_equal(const SimulationOutcome& actual,
                          const SimulationOutcome& expected) {
  ASSERT_EQ(actual.peer_throughput.size(), expected.peer_throughput.size());
  for (std::size_t i = 0; i < actual.peer_throughput.size(); ++i) {
    EXPECT_EQ(actual.peer_throughput[i], expected.peer_throughput[i]) << i;
  }
  ASSERT_EQ(actual.round_throughput.size(), expected.round_throughput.size());
  for (std::size_t i = 0; i < actual.round_throughput.size(); ++i) {
    EXPECT_EQ(actual.round_throughput[i], expected.round_throughput[i]) << i;
  }
  EXPECT_EQ(actual.peers_replaced, expected.peers_replaced);
}

void expect_engines_agree(const std::vector<ProtocolSpec>& protocols,
                          const SimulationConfig& config,
                          SimWorkspace* workspace = nullptr) {
  const std::vector<double> caps =
      piatek().stratified_sample(protocols.size());
  const auto sparse =
      simulate_rounds(protocols, caps, config, &piatek(), workspace);
  const auto dense =
      oracle::simulate_rounds_dense(protocols, caps, config, &piatek());
  expect_bitwise_equal(sparse, dense);
}

TEST(EngineEquivalence, HomogeneousPopulation) {
  expect_engines_agree(std::vector<ProtocolSpec>(40, bittorrent_protocol()),
                       quick(101, 200));
}

TEST(EngineEquivalence, HomogeneousPopulationScaling) {
  // The sweep's population of 50 and the larger ones where the dense
  // engine's O(n^2) terms dominate.
  for (const std::size_t n : {std::size_t{50}, std::size_t{100},
                              std::size_t{200}, std::size_t{400}}) {
    SCOPED_TRACE("population " + std::to_string(n));
    expect_engines_agree(std::vector<ProtocolSpec>(n, bittorrent_protocol()),
                         quick(42, 120));
  }
}

TEST(EngineEquivalence, MixedPopulationWithChurnAndRoundSeries) {
  ProtocolSpec freerider = bittorrent_protocol();
  freerider.allocation = AllocationPolicy::kFreeride;
  std::vector<ProtocolSpec> protocols(15, bittorrent_protocol());
  protocols.insert(protocols.end(), 15, loyal_when_needed_protocol());
  protocols.insert(protocols.end(), 10, freerider);
  SimulationConfig config = quick(103, 250);
  config.churn_rate = 0.04;
  config.record_round_series = true;
  expect_engines_agree(protocols, config);
}

TEST(EngineEquivalence, Tf2tPropShareWithIntakeCap) {
  const ProtocolSpec spec =
      make(StrangerPolicy::kWhenNeeded, 2, CandidateWindow::kTf2t,
           RankingFunction::kFastest, 4, AllocationPolicy::kPropShare);
  SimulationConfig config = quick(107, 200);
  config.intake_factor = 1.2;
  expect_engines_agree(std::vector<ProtocolSpec>(35, spec), config);
}

TEST(EngineEquivalence, EveryFaultProcess) {
  SimulationConfig config = quick(109, 200);
  config.faults = {
      dsa::fault::FaultProcess::memoryless_churn(0.02),
      dsa::fault::FaultProcess::burst_churn(40, 0.2),
      dsa::fault::FaultProcess::capacity_degradation(100, 0.6),
      dsa::fault::FaultProcess::targeted_failure(150, 0.1),
  };
  expect_engines_agree(std::vector<ProtocolSpec>(30, bittorrent_protocol()),
                       config);
}

class EngineEquivalenceRankings
    : public ::testing::TestWithParam<RankingFunction> {};

TEST_P(EngineEquivalenceRankings, AllRankingsAndPoliciesAgree) {
  // TF2T + churn stresses the two-generation merge, Loyal the sparse streak
  // table, Random the RNG draw alignment; mix the stranger policies so
  // defect-contact zero slots appear in the candidate lists of both engines.
  const ProtocolSpec reciprocator =
      make(StrangerPolicy::kWhenNeeded, 2, CandidateWindow::kTf2t, GetParam(),
           3, AllocationPolicy::kEqualSplit);
  const ProtocolSpec defector =
      make(StrangerPolicy::kDefect, 1, CandidateWindow::kTft, GetParam(), 2,
           AllocationPolicy::kPropShare);
  std::vector<ProtocolSpec> protocols(20, reciprocator);
  protocols.insert(protocols.end(), 10, defector);
  SimulationConfig config = quick(113, 200);
  config.churn_rate = 0.03;
  expect_engines_agree(protocols, config);
}

INSTANTIATE_TEST_SUITE_P(
    AllRankings, EngineEquivalenceRankings,
    ::testing::Values(RankingFunction::kFastest, RankingFunction::kSlowest,
                      RankingFunction::kProximity, RankingFunction::kAdaptive,
                      RankingFunction::kLoyal, RankingFunction::kRandom));

TEST(EngineEquivalence, SampledProtocolPairsAtPopulation50) {
  // A seeded sample of protocol-id pairs from the whole design space, run as
  // encounters at population 50 — the scale of the PRA sweep — so the engine
  // sees every partner count (k = 1 takes the single-best path, large k the
  // "every candidate selected" case), crowded TF2T candidate lists, and all
  // stranger counts, rankings and allocations. Each pair runs at splits
  // 50/50 and 10/90, plain, with churn, and with an intake cap.
  constexpr std::size_t kPairs = 48;
  constexpr std::size_t kPopulation = 50;
  dsa::util::Rng pick(0x5eed0fa1ULL);
  std::vector<std::pair<ProtocolSpec, ProtocolSpec>> pairs;
  std::array<bool, 10> k_seen{};
  std::array<bool, 4> h_seen{};
  std::array<bool, 2> window_seen{};
  std::array<bool, 6> ranking_seen{};
  std::array<bool, 3> allocation_seen{};
  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto a = static_cast<std::uint32_t>(pick.below(kProtocolCount));
    const auto b = static_cast<std::uint32_t>(pick.below(kProtocolCount));
    pairs.emplace_back(decode_protocol(a), decode_protocol(b));
    for (const ProtocolSpec& spec : {pairs.back().first, pairs.back().second}) {
      k_seen[spec.partner_slots] = true;
      h_seen[spec.stranger_slots] = true;
      allocation_seen[static_cast<int>(spec.allocation)] = true;
      if (spec.partner_slots == 0) continue;  // window/ranking are inert
      window_seen[static_cast<int>(spec.window)] = true;
      ranking_seen[static_cast<int>(spec.ranking)] = true;
    }
  }
  for (int k = 1; k <= 9; ++k) ASSERT_TRUE(k_seen[k]) << "k = " << k;
  for (int h = 0; h <= 3; ++h) ASSERT_TRUE(h_seen[h]) << "h = " << h;
  for (const bool seen : window_seen) ASSERT_TRUE(seen);
  for (const bool seen : ranking_seen) ASSERT_TRUE(seen);
  for (const bool seen : allocation_seen) ASSERT_TRUE(seen);

  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto& [a, b] = pairs[i];
    for (const std::size_t count_a : {kPopulation / 2, kPopulation / 10}) {
      std::vector<ProtocolSpec> protocols(count_a, a);
      protocols.insert(protocols.end(), kPopulation - count_a, b);
      for (int variant = 0; variant < 3; ++variant) {
        SCOPED_TRACE(a.describe() + " vs " + b.describe() + ", " +
                     std::to_string(count_a) + " of A, variant " +
                     std::to_string(variant));
        SimulationConfig config = quick(1000 + i, 80);
        if (variant == 1) config.churn_rate = 0.03;
        if (variant == 2) config.intake_factor = 1.1;
        const std::vector<double> caps =
            shuffled_capacities(kPopulation, piatek(), config.seed);
        expect_bitwise_equal(
            simulate_rounds(protocols, caps, config, &piatek()),
            oracle::simulate_rounds_dense(protocols, caps, config, &piatek()));
      }
    }
  }
}

TEST(EngineEquivalence, SampledTf2tPairsAtGiverBitmapWordEdges) {
  // The TF2T window gathers givers from a bitmap of 64-bit words: one giver
  // short of a word, exactly one word, one giver into the second word, and
  // three words. Each population runs seeded design-space pairs with a TF2T
  // side, split 50/50, plain and with churn.
  dsa::util::Rng pick(0xb17ed9e5ULL);
  for (const std::size_t population :
       {std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{130}}) {
    const std::size_t pairs = population > 64 * 2 ? 2 : 4;
    for (std::size_t i = 0; i < pairs;) {
      const ProtocolSpec a = decode_protocol(
          static_cast<std::uint32_t>(pick.below(kProtocolCount)));
      const ProtocolSpec b = decode_protocol(
          static_cast<std::uint32_t>(pick.below(kProtocolCount)));
      const auto tf2t = [](const ProtocolSpec& spec) {
        return spec.partner_slots > 0 && spec.window == CandidateWindow::kTf2t;
      };
      if (!tf2t(a) && !tf2t(b)) continue;
      ++i;
      std::vector<ProtocolSpec> protocols(population / 2, a);
      protocols.insert(protocols.end(), population - population / 2, b);
      for (const double churn : {0.0, 0.03}) {
        SCOPED_TRACE(a.describe() + " vs " + b.describe() + ", population " +
                     std::to_string(population) + ", churn " +
                     std::to_string(churn));
        SimulationConfig config = quick(2000 + population + i, 50);
        config.churn_rate = churn;
        const std::vector<double> caps =
            shuffled_capacities(population, piatek(), config.seed);
        expect_bitwise_equal(
            simulate_rounds(protocols, caps, config, &piatek()),
            oracle::simulate_rounds_dense(protocols, caps, config, &piatek()));
      }
    }
  }
}

TEST(EngineEquivalence, StrangerCountsOutsideTheDesignSpace) {
  // h = 9 and 12 draw more strangers per act than the design space's
  // h <= 3, under every stranger policy; the population of 12 leaves fewer
  // eligible strangers than are wanted.
  for (const int h : {9, 12}) {
    const ProtocolSpec periodic =
        make(StrangerPolicy::kPeriodic, h, CandidateWindow::kTft,
             RankingFunction::kFastest, 2, AllocationPolicy::kEqualSplit);
    const ProtocolSpec when_needed =
        make(StrangerPolicy::kWhenNeeded, h, CandidateWindow::kTf2t,
             RankingFunction::kLoyal, 4, AllocationPolicy::kPropShare);
    const ProtocolSpec defector =
        make(StrangerPolicy::kDefect, h, CandidateWindow::kTft,
             RankingFunction::kRandom, 1, AllocationPolicy::kFreeride);
    for (const std::size_t population : {std::size_t{12}, std::size_t{40}}) {
      SCOPED_TRACE("h = " + std::to_string(h) + ", population " +
                   std::to_string(population));
      std::vector<ProtocolSpec> protocols(population / 2, periodic);
      protocols.insert(protocols.end(), population / 4, when_needed);
      protocols.insert(protocols.end(), population - protocols.size(),
                       defector);
      SimulationConfig config = quick(3000 + h + population, 100);
      config.churn_rate = 0.03;
      expect_engines_agree(protocols, config);
    }
  }
}

TEST(EngineEquivalence, Tf2tWithMorePartnerSlotsThanTheDesignSpace) {
  // k = 12 and 20 with a TF2T window give candidate lists of more than 12,
  // so the ranking leaves its counting path; each ranking runs with an
  // ordered (Prop Share) and an unordered (Equal Split, Freeride) reader.
  for (const int k : {12, 20}) {
    for (const RankingFunction ranking :
         {RankingFunction::kFastest, RankingFunction::kSlowest,
          RankingFunction::kProximity, RankingFunction::kAdaptive,
          RankingFunction::kLoyal, RankingFunction::kRandom}) {
      std::vector<ProtocolSpec> protocols(
          20, make(StrangerPolicy::kPeriodic, 2, CandidateWindow::kTf2t,
                   ranking, k, AllocationPolicy::kEqualSplit));
      protocols.insert(
          protocols.end(), 15,
          make(StrangerPolicy::kWhenNeeded, 3, CandidateWindow::kTf2t, ranking,
               k, AllocationPolicy::kPropShare));
      protocols.insert(
          protocols.end(), 10,
          make(StrangerPolicy::kDefect, 1, CandidateWindow::kTf2t, ranking, k,
               AllocationPolicy::kFreeride));
      SCOPED_TRACE("k = " + std::to_string(k) + ", ranking " +
                   std::to_string(static_cast<int>(ranking)));
      SimulationConfig config = quick(4000 + k, 60);
      config.churn_rate = 0.02;
      expect_engines_agree(protocols, config);
    }
  }
}

TEST(EngineEquivalence, AdaptiveAspirationAcrossChurnAndCapacityDegradation) {
  // Aspiration is reset when a peer is replaced and moves with every
  // round's receipts; a capacity degradation shifts the capacities it is
  // compared with. Non-Adaptive rows ride along so the mix is realistic.
  std::vector<ProtocolSpec> protocols(
      15, make(StrangerPolicy::kWhenNeeded, 1, CandidateWindow::kTft,
               RankingFunction::kAdaptive, 3, AllocationPolicy::kEqualSplit));
  protocols.insert(
      protocols.end(), 10,
      make(StrangerPolicy::kPeriodic, 2, CandidateWindow::kTf2t,
           RankingFunction::kAdaptive, 1, AllocationPolicy::kPropShare));
  protocols.insert(protocols.end(), 10, bittorrent_protocol());
  SimulationConfig config = quick(5003, 200);
  config.churn_rate = 0.05;
  config.faults = {
      dsa::fault::FaultProcess::capacity_degradation(60, 0.5),
      dsa::fault::FaultProcess::burst_churn(50, 0.2),
  };
  expect_engines_agree(protocols, config);
}

TEST(EngineEquivalence, NegativeZeroCapacitiesTieWithZeroGifts) {
  // -0.0 passes the capacity check (it is >= 0), and a -0.0 peer gives
  // -0.0, which the dense engine's comparisons treat as equal to the 0.0
  // that defectors give: their order must come from the tie draws alone.
  const ProtocolSpec fastest =
      make(StrangerPolicy::kPeriodic, 2, CandidateWindow::kTft,
           RankingFunction::kFastest, 3, AllocationPolicy::kEqualSplit);
  const ProtocolSpec slowest =
      make(StrangerPolicy::kPeriodic, 2, CandidateWindow::kTf2t,
           RankingFunction::kSlowest, 2, AllocationPolicy::kEqualSplit);
  const ProtocolSpec defector =
      make(StrangerPolicy::kDefect, 3, CandidateWindow::kTft,
           RankingFunction::kFastest, 2, AllocationPolicy::kFreeride);
  std::vector<ProtocolSpec> protocols(15, fastest);
  protocols.insert(protocols.end(), 15, slowest);
  protocols.insert(protocols.end(), 10, defector);
  std::vector<double> caps = piatek().stratified_sample(protocols.size());
  for (std::size_t i = 0; i < caps.size(); i += 2) caps[i] = -0.0;
  const SimulationConfig config = quick(139, 120);
  expect_bitwise_equal(
      simulate_rounds(protocols, caps, config, &piatek()),
      oracle::simulate_rounds_dense(protocols, caps, config, &piatek()));
}

TEST(EngineEquivalence, WorkspaceReuseAcrossRunsAndSizes) {
  // One workspace reused across runs of different populations and configs
  // must behave exactly like a fresh workspace every time — the epoch
  // stamping must never leak state from a previous run, including after a
  // shrink-then-grow resize.
  SimWorkspace reused;
  SimulationConfig churny = quick(127, 150);
  churny.churn_rate = 0.05;
  expect_engines_agree(std::vector<ProtocolSpec>(40, bittorrent_protocol()),
                       quick(131, 150), &reused);
  expect_engines_agree(
      std::vector<ProtocolSpec>(20, loyal_when_needed_protocol()), churny,
      &reused);
  expect_engines_agree(std::vector<ProtocolSpec>(40, bittorrent_protocol()),
                       quick(131, 150), &reused);

  // And a reused workspace matches the thread-local (null) path bit for bit.
  const std::vector<ProtocolSpec> protocols(25, bittorrent_protocol());
  const std::vector<double> caps = piatek().stratified_sample(25);
  const auto with_reused =
      simulate_rounds(protocols, caps, quick(137, 150), &piatek(), &reused);
  const auto with_thread_local =
      simulate_rounds(protocols, caps, quick(137, 150), &piatek());
  expect_bitwise_equal(with_reused, with_thread_local);
}

}  // namespace

// Tests for the Sec. 4.2 design-space encoding and the Piatek bandwidth
// distribution.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "swarming/bandwidth.hpp"
#include "swarming/protocol.hpp"
#include "util/rng.hpp"

namespace {

using namespace dsa::swarming;

// ------------------------------------------------------------ protocol ----

TEST(ProtocolCodec, SpaceHas3270Protocols) {
  EXPECT_EQ(kProtocolCount, 3270u);
}

TEST(ProtocolCodec, EveryIdRoundTrips) {
  for (std::uint32_t id = 0; id < kProtocolCount; ++id) {
    const ProtocolSpec spec = decode_protocol(id);
    ASSERT_EQ(encode_protocol(spec), id) << "id " << id;
  }
}

TEST(ProtocolCodec, DecodedSpecsAreDistinct) {
  std::set<std::string> seen;
  for (std::uint32_t id = 0; id < kProtocolCount; ++id) {
    EXPECT_TRUE(seen.insert(decode_protocol(id).describe()).second)
        << "duplicate " << decode_protocol(id).describe();
  }
  EXPECT_EQ(seen.size(), kProtocolCount);
}

TEST(ProtocolCodec, FieldRangesMatchTheActualization) {
  std::set<int> hs, ks;
  std::size_t no_strangers = 0, no_partners = 0;
  for (std::uint32_t id = 0; id < kProtocolCount; ++id) {
    const ProtocolSpec spec = decode_protocol(id);
    hs.insert(spec.stranger_slots);
    ks.insert(spec.partner_slots);
    if (spec.stranger_slots == 0) ++no_strangers;
    if (spec.partner_slots == 0) ++no_partners;
  }
  EXPECT_EQ(hs, (std::set<int>{0, 1, 2, 3}));
  EXPECT_EQ(ks, (std::set<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  // One stranger singleton per selection x allocation combination.
  EXPECT_EQ(no_strangers, 109u * 3u);
  EXPECT_EQ(no_partners, 10u * 3u);
}

TEST(ProtocolCodec, OutOfRangeIdThrows) {
  EXPECT_THROW(decode_protocol(kProtocolCount), std::out_of_range);
}

TEST(ProtocolCodec, NonCanonicalSingletonsRejected) {
  ProtocolSpec spec;
  spec.stranger_slots = 0;
  spec.stranger_policy = StrangerPolicy::kDefect;  // must be canonical
  EXPECT_THROW(encode_protocol(spec), std::invalid_argument);
  spec = ProtocolSpec{};
  spec.partner_slots = 0;
  spec.ranking = RankingFunction::kLoyal;  // must be canonical
  EXPECT_THROW(encode_protocol(spec), std::invalid_argument);
  spec = ProtocolSpec{};
  spec.stranger_slots = 4;  // h outside [0, 3]
  EXPECT_THROW(encode_protocol(spec), std::invalid_argument);
  spec = ProtocolSpec{};
  spec.partner_slots = 10;  // k outside [0, 9]
  EXPECT_THROW(encode_protocol(spec), std::invalid_argument);
}

TEST(ProtocolCodec, NamedProtocolsLiveInTheSpace) {
  for (const ProtocolSpec& spec :
       {bittorrent_protocol(), birds_protocol(), loyal_when_needed_protocol(),
        sort_s_protocol(), random_rank_protocol()}) {
    const std::uint32_t id = encode_protocol(spec);
    EXPECT_LT(id, kProtocolCount);
    EXPECT_EQ(decode_protocol(id), spec);
  }
}

TEST(ProtocolCodec, NamedProtocolsMatchTheirPaperDefinitions) {
  EXPECT_EQ(bittorrent_protocol().ranking, RankingFunction::kFastest);
  EXPECT_EQ(birds_protocol().ranking, RankingFunction::kProximity);
  EXPECT_EQ(loyal_when_needed_protocol().ranking, RankingFunction::kLoyal);
  EXPECT_EQ(loyal_when_needed_protocol().stranger_policy,
            StrangerPolicy::kWhenNeeded);
  const ProtocolSpec sort_s = sort_s_protocol();
  EXPECT_EQ(sort_s.ranking, RankingFunction::kSlowest);
  EXPECT_EQ(sort_s.stranger_policy, StrangerPolicy::kDefect);
  EXPECT_EQ(sort_s.partner_slots, 1);
}

TEST(ProtocolCodec, DescribeIsHumanReadable) {
  EXPECT_EQ(loyal_when_needed_protocol().describe(),
            "WhenNeeded(h=1) | TFT/Loyal(k=4) | EqualSplit");
  ProtocolSpec spec;
  spec.stranger_slots = 0;
  spec.partner_slots = 0;
  spec.allocation = AllocationPolicy::kFreeride;
  EXPECT_EQ(spec.describe(), "NoStrangers | NoPartners | Freeride");
}

TEST(ProtocolCodec, EnumNames) {
  EXPECT_EQ(to_string(StrangerPolicy::kWhenNeeded), "WhenNeeded");
  EXPECT_EQ(to_string(CandidateWindow::kTf2t), "TF2T");
  EXPECT_EQ(to_string(RankingFunction::kProximity), "Proximity");
  EXPECT_EQ(to_string(AllocationPolicy::kPropShare), "PropShare");
}

// ----------------------------------------------------------- bandwidth ----

TEST(Bandwidth, PiatekQuantilesAreMonotone) {
  const auto dist = BandwidthDistribution::piatek();
  double prev = 0.0;
  for (int i = 0; i <= 100; ++i) {
    const double c = dist.capacity_at(i / 100.0);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(Bandwidth, PiatekShapeMatchesTheMeasurement) {
  const auto dist = BandwidthDistribution::piatek();
  EXPECT_NEAR(dist.capacity_at(0.5), 56.0, 1e-9);   // median ~56 KBps
  EXPECT_GT(dist.capacity_at(0.95), 1000.0);        // heavy tail
  EXPECT_LT(dist.capacity_at(0.2), 30.0);           // many slow peers
}

TEST(Bandwidth, CapacityAtClampsOutside) {
  const auto dist = BandwidthDistribution::piatek();
  EXPECT_DOUBLE_EQ(dist.capacity_at(-1.0), dist.capacity_at(0.0));
  EXPECT_DOUBLE_EQ(dist.capacity_at(2.0), dist.capacity_at(1.0));
}

TEST(Bandwidth, InterpolatesLinearlyBetweenKnots) {
  const BandwidthDistribution dist({{0.0, 10.0}, {1.0, 20.0}});
  EXPECT_DOUBLE_EQ(dist.capacity_at(0.25), 12.5);
  EXPECT_DOUBLE_EQ(dist.capacity_at(0.5), 15.0);
}

TEST(Bandwidth, StratifiedSampleIsSortedAndSpansTheRange) {
  const auto dist = BandwidthDistribution::piatek();
  const auto sample = dist.stratified_sample(50);
  ASSERT_EQ(sample.size(), 50u);
  for (std::size_t i = 1; i < sample.size(); ++i) {
    EXPECT_GE(sample[i], sample[i - 1]);
  }
  EXPECT_LT(sample.front(), 20.0);
  EXPECT_GT(sample.back(), 1000.0);
}

TEST(Bandwidth, RandomSampleStaysWithinSupport) {
  const auto dist = BandwidthDistribution::piatek();
  dsa::util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double c = dist.sample(rng);
    EXPECT_GE(c, dist.capacity_at(0.0));
    EXPECT_LE(c, dist.capacity_at(1.0));
  }
}

TEST(Bandwidth, RejectsInvalidKnotSequences) {
  using Knot = BandwidthDistribution::Knot;
  EXPECT_THROW(BandwidthDistribution({Knot{0.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(BandwidthDistribution({Knot{0.1, 1.0}, Knot{1.0, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(BandwidthDistribution({Knot{0.0, 1.0}, Knot{0.9, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      BandwidthDistribution({Knot{0.0, 5.0}, Knot{0.5, 3.0}, Knot{1.0, 9.0}}),
      std::invalid_argument);
  EXPECT_THROW(BandwidthDistribution({Knot{0.0, 0.0}, Knot{1.0, 1.0}}),
               std::invalid_argument);
}

TEST(Bandwidth, RejectsNonFiniteCapacities) {
  // A churned-in peer's capacity is a sample, so the distribution must
  // never produce one that simulate_rounds would reject.
  using Knot = BandwidthDistribution::Knot;
  EXPECT_THROW(
      BandwidthDistribution(
          {Knot{0.0, 1.0}, Knot{1.0, std::numeric_limits<double>::infinity()}}),
      std::invalid_argument);
  EXPECT_THROW(BandwidthDistribution({Knot{0.0, 1.0}, Knot{0.5, std::nan("")},
                                      Knot{1.0, 2.0}}),
               std::invalid_argument);
}

}  // namespace

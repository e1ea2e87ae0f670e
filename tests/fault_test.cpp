// Fault-injection tests: deterministic replay of fault plans in the swarm
// simulator, crash/rejoin piece accounting, seeder outages, message loss,
// pluggable fault processes in the round model, and the field-named
// validation errors of both configs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/fault_process.hpp"
#include "swarm/swarm_sim.hpp"
#include "swarming/bandwidth.hpp"
#include "swarming/protocol.hpp"
#include "swarming/simulator.hpp"

namespace {

using namespace dsa;
using namespace dsa::swarm;

SwarmConfig small_config(std::uint64_t seed = 1) {
  SwarmConfig config;
  config.piece_count = 20;
  config.seed = seed;
  return config;
}

std::vector<ClientVariant> uniform(std::size_t n, ClientVariant v) {
  return std::vector<ClientVariant>(n, v);
}

void expect_identical(const SwarmResult& a, const SwarmResult& b) {
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.uploaded_kb, b.uploaded_kb);
  EXPECT_EQ(a.downloaded_kb, b.downloaded_kb);
  EXPECT_EQ(a.all_completed, b.all_completed);
  EXPECT_EQ(a.fault_stats.messages_lost, b.fault_stats.messages_lost);
  EXPECT_EQ(a.fault_stats.lost_kb, b.fault_stats.lost_kb);
  EXPECT_EQ(a.fault_stats.crashes, b.fault_stats.crashes);
  EXPECT_EQ(a.fault_stats.pieces_wiped, b.fault_stats.pieces_wiped);
  EXPECT_EQ(a.fault_stats.stall_ticks, b.fault_stats.stall_ticks);
  EXPECT_EQ(a.fault_stats.seeder_down_ticks,
            b.fault_stats.seeder_down_ticks);
  EXPECT_EQ(a.fault_stats.mean_seeder_recovery_ticks,
            b.fault_stats.mean_seeder_recovery_ticks);
}

// ----------------------------------------------------- replay determinism ----

TEST(SwarmFaults, SameSeedAndPlanReplayIdentically) {
  const auto leechers = uniform(12, ClientVariant::kBitTorrent);
  const std::vector<double> caps(12, 60.0);
  SwarmConfig config = small_config(21);
  fault::FaultSpec spec;
  spec.intensity = 0.6;
  spec.seed = 7;
  config.faults = fault::make_fault_plan(spec, 12, 400);
  const auto a = run_swarm(leechers, caps, config);
  const auto b = run_swarm(leechers, caps, config);
  expect_identical(a, b);
}

TEST(SwarmFaults, EmptyPlanMatchesFaultFreeBaselineBitwise) {
  const auto leechers = uniform(10, ClientVariant::kBirds);
  const std::vector<double> caps(10, 70.0);
  const auto baseline = run_swarm(leechers, caps, small_config(5));
  SwarmConfig with_empty_plan = small_config(5);
  fault::FaultSpec spec;  // intensity 0 -> empty plan, no RNG draws
  with_empty_plan.faults = fault::make_fault_plan(spec, 10, 400);
  EXPECT_TRUE(with_empty_plan.faults.empty());
  const auto injected = run_swarm(leechers, caps, with_empty_plan);
  expect_identical(baseline, injected);
  EXPECT_EQ(injected.fault_stats.messages_lost, 0u);
  EXPECT_EQ(injected.fault_stats.crashes, 0u);
}

TEST(MakeFaultPlan, IsDeterministicAndScalesWithIntensity) {
  fault::FaultSpec spec;
  spec.intensity = 0.5;
  spec.seed = 3;
  const auto a = fault::make_fault_plan(spec, 20, 1000);
  const auto b = fault::make_fault_plan(spec, 20, 1000);
  EXPECT_EQ(a.message_loss, b.message_loss);
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].leecher, b.crashes[i].leecher);
    EXPECT_EQ(a.crashes[i].tick, b.crashes[i].tick);
    EXPECT_EQ(a.crashes[i].downtime, b.crashes[i].downtime);
  }
  EXPECT_EQ(a.crashes.size(), 5u);  // 0.5 intensity * 0.5 crash_frac * 20
  ASSERT_EQ(a.seeder_outages.size(), 1u);

  spec.intensity = 1.0;
  const auto harsher = fault::make_fault_plan(spec, 20, 1000);
  EXPECT_GT(harsher.message_loss, a.message_loss);
  EXPECT_GT(harsher.crashes.size(), a.crashes.size());
}

// --------------------------------------------------------- crash / rejoin ----

TEST(SwarmFaults, CrashedLeecherRejoinsAndStillCompletes) {
  SwarmConfig config = small_config(11);
  fault::CrashEvent crash;
  crash.leecher = 0;
  // Nobody can complete before the seeder has emitted the file once
  // (20 x 64 KB / 128 KBps = 10 s), so a crash at tick 8 always strikes.
  crash.tick = 8;
  crash.downtime = 10;
  config.faults.crashes.push_back(crash);
  const auto result = run_swarm(uniform(8, ClientVariant::kBitTorrent),
                                std::vector<double>(8, 80.0), config);
  EXPECT_EQ(result.fault_stats.crashes, 1u);
  EXPECT_TRUE(result.all_completed);
  // The victim restarts from zero pieces when it rejoins at tick 18.
  EXPECT_GT(result.completion_time[0], 18.0);
}

TEST(SwarmFaults, CrashWipesPiecesConsistently) {
  // Crash late enough that the victim certainly holds pieces.
  SwarmConfig config = small_config(13);
  fault::CrashEvent crash;
  crash.leecher = 2;
  crash.tick = 60;
  crash.downtime = 15;
  config.faults.crashes.push_back(crash);
  const auto result = run_swarm(uniform(8, ClientVariant::kBitTorrent),
                                std::vector<double>(8, 80.0), config);
  if (result.fault_stats.crashes == 1) {
    EXPECT_GT(result.fault_stats.pieces_wiped, 0u);
  } else {
    // The victim finished before tick 60; the event must then be a no-op.
    EXPECT_EQ(result.fault_stats.pieces_wiped, 0u);
  }
  EXPECT_TRUE(result.all_completed);
}

TEST(SwarmFaults, CrashAfterCompletionIsANoOp) {
  SwarmConfig config = small_config(17);
  fault::CrashEvent crash;
  crash.leecher = 0;
  crash.tick = config.max_ticks - 1;  // long after everyone finished
  crash.downtime = 5;
  config.faults.crashes.push_back(crash);
  const auto result = run_swarm(uniform(6, ClientVariant::kBitTorrent),
                                std::vector<double>(6, 90.0), config);
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.fault_stats.crashes, 0u);
  EXPECT_EQ(result.fault_stats.pieces_wiped, 0u);
}

// ---------------------------------------------------------- seeder outage ----

TEST(SwarmFaults, PermanentSeederOutageTerminatesAtMaxTicks) {
  SwarmConfig config = small_config(19);
  config.max_ticks = 50;
  fault::SeederOutage outage;
  outage.begin_tick = 0;
  outage.end_tick = config.max_ticks + 1;  // never comes back
  config.faults.seeder_outages.push_back(outage);
  const auto result = run_swarm(uniform(6, ClientVariant::kBitTorrent),
                                std::vector<double>(6, 90.0), config);
  EXPECT_FALSE(result.all_completed);
  for (double t : result.completion_time) EXPECT_LT(t, 0.0);
  // The only piece source was dark the whole run: every tick idled.
  EXPECT_EQ(result.fault_stats.seeder_down_ticks, config.max_ticks);
  EXPECT_EQ(result.fault_stats.stall_ticks, config.max_ticks);
  EXPECT_LT(result.fault_stats.mean_seeder_recovery_ticks, 0.0);
}

TEST(SwarmFaults, SeederOutageDelaysSwarmAndRecoveryIsMeasured) {
  const auto leechers = uniform(8, ClientVariant::kBitTorrent);
  const std::vector<double> caps(8, 80.0);
  const auto baseline = run_swarm(leechers, caps, small_config(23));
  ASSERT_TRUE(baseline.all_completed);

  SwarmConfig config = small_config(23);
  fault::SeederOutage outage;
  outage.begin_tick = 5;
  outage.end_tick = 45;
  config.faults.seeder_outages.push_back(outage);
  const auto degraded = run_swarm(leechers, caps, config);
  EXPECT_TRUE(degraded.all_completed);
  EXPECT_EQ(degraded.fault_stats.seeder_down_ticks, 40u);
  // The outage ended mid-run, so re-unchoke latency was recorded.
  EXPECT_GE(degraded.fault_stats.mean_seeder_recovery_ticks, 0.0);
  EXPECT_GT(degraded.group_mean_time(0, 8, config.max_ticks),
            baseline.group_mean_time(0, 8, config.max_ticks) - 1e-9);
}

// ------------------------------------------------------------------ loss ----

TEST(SwarmFaults, MessageLossSlowsDownloads) {
  const auto leechers = uniform(10, ClientVariant::kBitTorrent);
  const std::vector<double> caps(10, 70.0);
  const auto clean = run_swarm(leechers, caps, small_config(29));
  SwarmConfig lossy_config = small_config(29);
  lossy_config.faults.message_loss = 0.3;
  const auto lossy = run_swarm(leechers, caps, lossy_config);
  EXPECT_GT(lossy.fault_stats.messages_lost, 0u);
  EXPECT_GT(lossy.fault_stats.lost_kb, 0.0);
  EXPECT_GT(lossy.group_mean_time(0, 10, lossy_config.max_ticks),
            clean.group_mean_time(0, 10, lossy_config.max_ticks));
}

// ----------------------------------------------------- schedule edge cases ----

TEST(SwarmFaults, CrashAtTickZeroStrikesBeforeAnyTransfer) {
  SwarmConfig config = small_config(37);
  config.faults.crashes.push_back({/*leecher=*/1, /*tick=*/0, /*downtime=*/12});
  const auto result = run_swarm(uniform(8, ClientVariant::kBitTorrent),
                                std::vector<double>(8, 80.0), config);
  // The victim holds nothing yet, so the crash strikes but wipes nothing.
  EXPECT_EQ(result.fault_stats.crashes, 1u);
  EXPECT_EQ(result.fault_stats.pieces_wiped, 0u);
  EXPECT_TRUE(result.all_completed);
  // It sat out the first 12 ticks, so it cannot beat that bound.
  EXPECT_GT(result.completion_time[1], 12.0);
}

TEST(SwarmFaults, TwoCrashesOfTheSameLeecherBothStrike) {
  SwarmConfig config = small_config(41);
  // Second crash lands after the rejoin from the first (tick 8 + 10 < 25)
  // but before the victim can finish its re-download, so it is struck twice
  // and restarts from zero pieces twice.
  config.faults.crashes.push_back({/*leecher=*/0, /*tick=*/8, /*downtime=*/10});
  config.faults.crashes.push_back({/*leecher=*/0, /*tick=*/25, /*downtime=*/10});
  const auto once = [&] {
    SwarmConfig single = small_config(41);
    single.faults.crashes.push_back({0, 8, 10});
    return run_swarm(uniform(8, ClientVariant::kBitTorrent),
                     std::vector<double>(8, 80.0), single);
  }();
  const auto twice = run_swarm(uniform(8, ClientVariant::kBitTorrent),
                               std::vector<double>(8, 80.0), config);
  EXPECT_EQ(twice.fault_stats.crashes, 2u);
  EXPECT_TRUE(twice.all_completed);
  // The second strike wipes the progress rebuilt since the first rejoin;
  // the victim sat out until tick 35, so it cannot beat that bound.
  EXPECT_GE(twice.completion_time[0], once.completion_time[0]);
  EXPECT_GT(twice.completion_time[0], 35.0);
}

TEST(SwarmFaults, OutageSpanningTheFinalTickCountsOnlySimulatedTicks) {
  SwarmConfig config = small_config(43);
  config.max_ticks = 60;
  // The window runs past the horizon; only in-run ticks are counted, and a
  // window that never ends inside the run records no recovery sample.
  config.faults.seeder_outages.push_back({/*begin=*/50, /*end=*/200});
  const auto result = run_swarm(uniform(6, ClientVariant::kBitTorrent),
                                std::vector<double>(6, 90.0), config);
  EXPECT_LE(result.fault_stats.seeder_down_ticks, 10u);
  EXPECT_LT(result.fault_stats.mean_seeder_recovery_ticks, 0.0);
}

// -------------------------------------------------------------- validation ----

template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(FaultValidation, ErrorsNameTheOffendingField) {
  fault::FaultPlan plan;
  plan.message_loss = 1.5;
  EXPECT_NE(thrown_message([&] { plan.validate(10); }).find("message_loss"),
            std::string::npos);

  fault::FaultPlan bad_crash;
  bad_crash.crashes.push_back({/*leecher=*/10, /*tick=*/1, /*downtime=*/5});
  EXPECT_NE(thrown_message([&] { bad_crash.validate(10); }).find("crashes"),
            std::string::npos);

  fault::FaultPlan zero_downtime;
  zero_downtime.crashes.push_back({0, 1, 0});
  EXPECT_NE(
      thrown_message([&] { zero_downtime.validate(10); }).find("downtime"),
      std::string::npos);

  fault::FaultPlan bad_outage;
  bad_outage.seeder_outages.push_back({50, 50});
  EXPECT_NE(
      thrown_message([&] { bad_outage.validate(10); }).find("seeder_outages"),
      std::string::npos);

  SwarmConfig config;
  config.piece_count = 0;
  EXPECT_NE(thrown_message([&] { config.validate(5); }).find("piece_count"),
            std::string::npos);

  fault::FaultSpec spec;
  spec.intensity = -0.1;
  EXPECT_NE(thrown_message([&] {
              (void)fault::make_fault_plan(spec, 10, 100);
            }).find("intensity"),
            std::string::npos);

  fault::FaultPlan overlapping;
  overlapping.seeder_outages.push_back({10, 50});
  overlapping.seeder_outages.push_back({40, 80});
  EXPECT_NE(
      thrown_message([&] { overlapping.validate(10); }).find("overlap"),
      std::string::npos);

  fault::FaultPlan beyond_horizon;
  beyond_horizon.crashes.push_back({0, 100, 5});
  EXPECT_NE(thrown_message([&] {
              beyond_horizon.validate(10, /*max_ticks=*/100);
            }).find("horizon"),
            std::string::npos);
  beyond_horizon.validate(10);  // no horizon given: any tick is legal

  // The swarm config path funnels through the same plan validation.
  SwarmConfig faulty_config;
  faulty_config.faults.seeder_outages.push_back({5, 5});
  EXPECT_NE(thrown_message([&] {
              faulty_config.validate(5);
            }).find("seeder_outages"),
            std::string::npos);
}

TEST(MakeFaultPlan, IntensityOneClampsLossAndNeverEmitsZeroDowntime) {
  // At intensity exactly 1.0 the loss product must clamp into [0, 1] and
  // every generated crash must carry downtime >= 1, across many seeds and a
  // degenerate one-tick horizon.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    fault::FaultSpec spec;
    spec.intensity = 1.0;
    spec.max_message_loss = 1.0;
    spec.seed = seed;
    const auto plan = fault::make_fault_plan(spec, 20, 1000);
    EXPECT_LE(plan.message_loss, 1.0);
    EXPECT_GE(plan.message_loss, 0.0);
    for (const auto& crash : plan.crashes) EXPECT_GE(crash.downtime, 1u);
    plan.validate(20);

    const auto tiny = fault::make_fault_plan(spec, 4, /*horizon_ticks=*/1);
    for (const auto& crash : tiny.crashes) EXPECT_GE(crash.downtime, 1u);
    tiny.validate(4);
  }
}

// ------------------------------------------------- round-model processes ----

using namespace dsa::swarming;

const BandwidthDistribution& piatek() {
  static const BandwidthDistribution dist = BandwidthDistribution::piatek();
  return dist;
}

SimulationConfig quick(std::uint64_t seed = 1, std::size_t rounds = 60) {
  SimulationConfig config;
  config.rounds = rounds;
  config.seed = seed;
  return config;
}

TEST(RoundFaults, BurstChurnReplacesTheConfiguredFraction) {
  SimulationConfig config = quick(3, 20);
  config.faults.push_back(fault::FaultProcess::burst_churn(10, 0.5));
  const std::vector<ProtocolSpec> protocols(10, bittorrent_protocol());
  const std::vector<double> caps(10, 50.0);
  const auto outcome = simulate_rounds(protocols, caps, config, &piatek());
  // Bursts strike at the end of rounds 9 and 19: two bursts of 5 peers.
  EXPECT_EQ(outcome.peers_replaced, 10u);
}

TEST(RoundFaults, TargetedFailureHitsExactlyOnce) {
  SimulationConfig config = quick(5, 30);
  config.faults.push_back(fault::FaultProcess::targeted_failure(15, 0.3));
  const std::vector<ProtocolSpec> protocols(10, bittorrent_protocol());
  const std::vector<double> caps(10, 50.0);
  const auto outcome = simulate_rounds(protocols, caps, config, &piatek());
  EXPECT_EQ(outcome.peers_replaced, 3u);
}

TEST(RoundFaults, CapacityDegradationLowersThroughputWithoutReplacing) {
  const std::vector<ProtocolSpec> protocols(12, bittorrent_protocol());
  const std::vector<double> caps(12, 60.0);
  const auto healthy = simulate_rounds(protocols, caps, quick(7, 80));
  SimulationConfig config = quick(7, 80);
  config.faults.push_back(fault::FaultProcess::capacity_degradation(10, 0.4));
  // Degradation replaces nobody, so no churn source is needed.
  EXPECT_FALSE(config.needs_churn_source());
  const auto degraded = simulate_rounds(protocols, caps, config);
  EXPECT_EQ(degraded.peers_replaced, 0u);
  EXPECT_LT(degraded.population_mean(), healthy.population_mean());
}

TEST(RoundFaults, FaultRunsReplayDeterministically) {
  SimulationConfig config = quick(11, 40);
  config.faults.push_back(fault::FaultProcess::burst_churn(8, 0.25));
  config.faults.push_back(fault::FaultProcess::capacity_degradation(20, 0.7));
  const std::vector<ProtocolSpec> protocols(10, birds_protocol());
  const std::vector<double> caps(10, 45.0);
  const auto a = simulate_rounds(protocols, caps, config, &piatek());
  const auto b = simulate_rounds(protocols, caps, config, &piatek());
  EXPECT_EQ(a.peer_throughput, b.peer_throughput);
  EXPECT_EQ(a.peers_replaced, b.peers_replaced);
}

TEST(RoundFaults, LegacyChurnStillMapsToMemorylessProcess) {
  // churn_rate and an equivalent memoryless process both need a source and
  // both replace peers; their exact RNG draws differ (the legacy knob runs
  // first), so only the structural behavior is compared.
  SimulationConfig config = quick(13, 40);
  config.faults.push_back(fault::FaultProcess::memoryless_churn(0.2));
  EXPECT_TRUE(config.needs_churn_source());
  const std::vector<ProtocolSpec> protocols(10, bittorrent_protocol());
  const std::vector<double> caps(10, 50.0);
  EXPECT_THROW(simulate_rounds(protocols, caps, config, nullptr),
               std::invalid_argument);
  const auto outcome = simulate_rounds(protocols, caps, config, &piatek());
  EXPECT_GT(outcome.peers_replaced, 0u);
}

TEST(RoundFaults, SimulationConfigValidationNamesFields) {
  SimulationConfig config = quick();
  config.churn_rate = 2.0;
  EXPECT_NE(thrown_message([&] { config.validate(); }).find("churn_rate"),
            std::string::npos);

  SimulationConfig bad_process = quick();
  bad_process.faults.push_back(fault::FaultProcess::burst_churn(0, 0.5));
  EXPECT_NE(thrown_message([&] { bad_process.validate(); }).find("period"),
            std::string::npos);

  SimulationConfig bad_factor = quick();
  bad_factor.faults.push_back(
      fault::FaultProcess::capacity_degradation(5, 0.0));
  EXPECT_NE(thrown_message([&] { bad_factor.validate(); }).find("factor"),
            std::string::npos);
}

TEST(RoundFaults, ProcessNamesAreStable) {
  EXPECT_EQ(to_string(fault::FaultProcessKind::kMemorylessChurn),
            "memoryless-churn");
  EXPECT_EQ(to_string(fault::FaultProcessKind::kBurstChurn), "burst-churn");
  EXPECT_EQ(to_string(fault::FaultProcessKind::kCapacityDegradation),
            "capacity-degradation");
  EXPECT_EQ(to_string(fault::FaultProcessKind::kTargetedFailure),
            "targeted-failure");
}

}  // namespace

// Tests for the flight recorder (obs/recorder.hpp) and the report layer
// built on top of it (report/report.hpp):
//
//  * determinism — simulation outputs are bitwise-identical with recording
//    off, on, and under concurrent runs (the recorder's core contract);
//  * canonical ordering — the saved bytes do not depend on which thread
//    flushed first, as long as run keys are unique;
//  * serialization — recording JSONL survives a save -> load -> save round
//    trip byte-for-byte (the schema contract `dsa_cli report` relies on),
//    and a header stride other than 1 is rejected by name;
//  * golden extraction — the event path and the in-memory twin produce the
//    same figure tables byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/recorder.hpp"
#include "report/report.hpp"
#include "swarm/swarm_sim.hpp"
#include "swarming/dsa_model.hpp"
#include "swarming/pra_dataset.hpp"
#include "swarming/simulator.hpp"
#include "util/fs.hpp"

namespace {

using namespace dsa;

/// Resets the global recorder around every test: level off, no events, no
/// context. The recorder is process-wide state, so tests must not leak
/// configuration into each other (or into other suites in this binary).
class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { quiesce(); }
  void TearDown() override { quiesce(); }

  static void quiesce() {
    obs::Recorder& recorder = obs::Recorder::global();
    recorder.configure(obs::RecordLevel::kOff);
    recorder.set_context("");
    recorder.reset();
  }

  static void configure(obs::RecordLevel level) {
    obs::Recorder::global().configure(level);
  }
};

/// Bitwise equality for double vectors: the determinism contract is exact
/// bits, not closeness, so compare through bit_cast (this also treats -0.0
/// vs 0.0 and NaN payloads strictly).
void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "index " << i;
  }
}

swarming::SimulationOutcome run_round_model(std::uint64_t seed = 4242) {
  const auto bandwidths = swarming::BandwidthDistribution::piatek();
  std::vector<swarming::ProtocolSpec> protocols;
  protocols.insert(protocols.end(), 15, swarming::bittorrent_protocol());
  protocols.insert(protocols.end(), 15,
                   swarming::loyal_when_needed_protocol());
  const std::vector<double> capacities =
      bandwidths.stratified_sample(protocols.size());
  swarming::SimulationConfig config;
  config.rounds = 60;
  config.churn_rate = 0.02;
  config.seed = seed;
  return swarming::simulate_rounds(protocols, capacities, config,
                                   &bandwidths);
}

swarm::SwarmResult run_small_swarm(std::uint64_t seed = 99) {
  swarm::SwarmConfig config;
  config.piece_count = 16;
  config.max_ticks = 4000;
  config.seed = seed;
  return swarm::run_mixed_swarm(swarm::ClientVariant::kBitTorrent,
                                swarm::ClientVariant::kBirds, 5, 10, config);
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- Determinism: recording must never change a result bit ---------------

TEST_F(RecorderTest, RoundModelOutputsIdenticalWithRecordingOnAndOff) {
  configure(obs::RecordLevel::kOff);
  const auto off = run_round_model();

  configure(obs::RecordLevel::kFull);
  const auto full = run_round_model();

  expect_bits_equal(off.peer_throughput, full.peer_throughput);
  EXPECT_EQ(off.peers_replaced, full.peers_replaced);
  EXPECT_GT(obs::Recorder::global().event_count(), 0u);
  obs::Recorder::global().reset();
}

TEST_F(RecorderTest, SwarmOutputsIdenticalWithRecordingOnAndOff) {
  configure(obs::RecordLevel::kOff);
  const auto off = run_small_swarm();

  configure(obs::RecordLevel::kFull);
  const auto full = run_small_swarm();

  expect_bits_equal(off.completion_time, full.completion_time);
  expect_bits_equal(off.uploaded_kb, full.uploaded_kb);
  expect_bits_equal(off.downloaded_kb, full.downloaded_kb);
  EXPECT_EQ(off.all_completed, full.all_completed);
  EXPECT_GT(obs::Recorder::global().event_count(), 0u);
}

TEST_F(RecorderTest, ConcurrentRunsProduceTheSerialRecordingBytes) {
  // Eight runs with distinct seeds (= distinct run keys), first serially,
  // then from four threads. The canonical snapshot order must make the
  // serialized recording independent of flush interleaving, and each
  // threaded run's outputs must match its serial twin bitwise.
  constexpr std::uint64_t kSeeds[] = {11, 12, 13, 14, 15, 16, 17, 18};
  configure(obs::RecordLevel::kFull);

  std::vector<swarming::SimulationOutcome> serial(8);
  for (std::size_t i = 0; i < 8; ++i) {
    serial[i] = run_round_model(kSeeds[i]);
  }
  const auto serial_events = obs::Recorder::global().snapshot();
  const std::string serial_jsonl = obs::to_recording_jsonl(
      serial_events, obs::RecordLevel::kFull);
  obs::Recorder::global().reset();

  std::vector<swarming::SimulationOutcome> threaded(8);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([t, &threaded, &kSeeds] {
      for (std::size_t i = static_cast<std::size_t>(t); i < 8; i += 4) {
        threaded[i] = run_round_model(kSeeds[i]);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const auto threaded_events = obs::Recorder::global().snapshot();
  const std::string threaded_jsonl = obs::to_recording_jsonl(
      threaded_events, obs::RecordLevel::kFull);

  for (std::size_t i = 0; i < 8; ++i) {
    expect_bits_equal(serial[i].peer_throughput,
                      threaded[i].peer_throughput);
  }
  EXPECT_EQ(serial_events.size(), threaded_events.size());
  EXPECT_EQ(serial_jsonl, threaded_jsonl);
}

TEST_F(RecorderTest, SuppressScopeSilencesCapturesOnThisThread) {
  configure(obs::RecordLevel::kFull);
  {
    obs::SuppressScope suppress;
    EXPECT_TRUE(obs::SuppressScope::active());
    run_round_model();
  }
  EXPECT_FALSE(obs::SuppressScope::active());
  EXPECT_EQ(obs::Recorder::global().event_count(), 0u);
}

// --- Pinned bytes ---------------------------------------------------------

/// FNV-1a over a string's bytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

TEST_F(RecorderTest, FullLevelRoundModelRecordingIsPinned) {
  // Full-level recordings carry every per-decision value (partner shares
  // and windows, stranger gifts, selection sizes), which no outcome test
  // reads. Pinning their bytes guards them: Prop Share and TF2T windows,
  // Defect strangers' zero slots, Loyal streak rankings and Random draws,
  // with churn in one run and an intake cap in the other.
  using swarming::AllocationPolicy;
  using swarming::CandidateWindow;
  using swarming::RankingFunction;
  using swarming::StrangerPolicy;
  auto make = [](StrangerPolicy policy, int h, CandidateWindow window,
                 RankingFunction ranking, int k, AllocationPolicy allocation) {
    swarming::ProtocolSpec spec;
    spec.stranger_policy = policy;
    spec.stranger_slots = static_cast<std::uint8_t>(h);
    spec.window = window;
    spec.ranking = ranking;
    spec.partner_slots = static_cast<std::uint8_t>(k);
    spec.allocation = allocation;
    return spec;
  };
  std::vector<swarming::ProtocolSpec> protocols;
  protocols.insert(protocols.end(), 8,
                   make(StrangerPolicy::kWhenNeeded, 2, CandidateWindow::kTf2t,
                        RankingFunction::kFastest, 3,
                        AllocationPolicy::kPropShare));
  protocols.insert(protocols.end(), 6,
                   make(StrangerPolicy::kDefect, 1, CandidateWindow::kTft,
                        RankingFunction::kLoyal, 2,
                        AllocationPolicy::kEqualSplit));
  protocols.insert(protocols.end(), 6,
                   make(StrangerPolicy::kPeriodic, 1, CandidateWindow::kTf2t,
                        RankingFunction::kLoyal, 5,
                        AllocationPolicy::kPropShare));
  protocols.insert(protocols.end(), 5,
                   make(StrangerPolicy::kDefect, 3, CandidateWindow::kTf2t,
                        RankingFunction::kRandom, 1,
                        AllocationPolicy::kPropShare));
  protocols.insert(protocols.end(), 5,
                   make(StrangerPolicy::kPeriodic, 2, CandidateWindow::kTft,
                        RankingFunction::kSlowest, 9,
                        AllocationPolicy::kEqualSplit));
  const auto bandwidths = swarming::BandwidthDistribution::piatek();
  configure(obs::RecordLevel::kFull);
  for (const std::uint64_t seed : {31u, 32u}) {
    swarming::SimulationConfig config;
    config.rounds = 40;
    config.seed = seed;
    if (seed == 31) config.churn_rate = 0.03;
    if (seed == 32) config.intake_factor = 1.2;
    (void)swarming::simulate_rounds(
        protocols,
        swarming::shuffled_capacities(protocols.size(), bandwidths, seed),
        config, &bandwidths);
  }
  const std::string jsonl = obs::to_recording_jsonl(
      obs::Recorder::global().snapshot(), obs::RecordLevel::kFull);
  EXPECT_GT(jsonl.size(), 100000u);
  EXPECT_EQ(fnv1a(jsonl), 0xd822f79b43783d58ULL)
      << std::hex << fnv1a(jsonl);
}

TEST_F(RecorderTest, RoundsLevelSkipsPerDecisionEvents) {
  configure(obs::RecordLevel::kRounds);
  run_round_model();
  for (const obs::Event& event : obs::Recorder::global().snapshot()) {
    EXPECT_TRUE(event.kind == obs::EventKind::kRun ||
                event.kind == obs::EventKind::kRound ||
                event.kind == obs::EventKind::kPeer)
        << "unexpected kind " << obs::to_string(event.kind);
  }
}

// --- Serialization --------------------------------------------------------

std::vector<obs::Event> synthetic_events() {
  // One of every kind, exercising the optional-field paths: absent
  // actor/peer, empty and non-empty label/detail, a run key above 2^53
  // (must survive as a decimal string), and doubles needing exact
  // round-trip formatting.
  std::vector<obs::Event> events;
  events.push_back({.kind = obs::EventKind::kRun,
                    .run = 1,
                    .value = {{50.0, 120.0, 0.02, 1.0}},
                    .label = "round",
                    .detail = "unit test"});
  events.push_back({.kind = obs::EventKind::kRound,
                    .run = 1,
                    .time = 7,
                    .value = {{13.25, 2.0, 0.0, 0.0}}});
  events.push_back({.kind = obs::EventKind::kSelect,
                    .run = 1,
                    .time = 7,
                    .actor = 3,
                    .value = {{12.0, 4.0, 1.0, 5.0}}});
  events.push_back({.kind = obs::EventKind::kPartner,
                    .run = 1,
                    .time = 7,
                    .actor = 3,
                    .peer = 9,
                    .value = {{6.5, 1.0 / 3.0, 0.0, 0.0}}});
  events.push_back({.kind = obs::EventKind::kStranger,
                    .run = 1,
                    .time = 7,
                    .actor = 3,
                    .peer = 11,
                    .value = {{0.0, 0.0, 0.0, 0.0}}});
  events.push_back({.kind = obs::EventKind::kPeer,
                    .run = 1,
                    .actor = 0,
                    .value = {{93.0, 41.125, 0.0, 0.0}},
                    .label = "BT(r=sort,k=4)"});
  events.push_back({.kind = obs::EventKind::kPra,
                    .run = 2,
                    .actor = 2,
                    .value = {{0.875, 0.5, 0.25, 101.0}},
                    .label = "policy \"quoted\""});
  events.push_back({.kind = obs::EventKind::kChoke,
                    .run = (1ull << 60) + 3,
                    .time = 40,
                    .actor = 1,
                    .peer = 2,
                    .value = {{1.0, 0.0, 0.0, 0.0}}});
  events.push_back({.kind = obs::EventKind::kPiece,
                    .run = (1ull << 60) + 3,
                    .time = 41,
                    .actor = 2,
                    .peer = 0,
                    .value = {{5.0, 6.0, 0.0, 0.0}}});
  events.push_back({.kind = obs::EventKind::kLeecher,
                    .run = (1ull << 60) + 3,
                    .actor = 4,
                    .value = {{128.0, -1.0, 320.0, 256.0}},
                    .label = "birds"});
  events.push_back({.kind = obs::EventKind::kMixedSwarm,
                    .run = (1ull << 60) + 3,
                    .value = {{25.0, 50.0, 20000.0, 0.0}},
                    .label = "bittorrent|birds",
                    .detail = "Fig. 9(b)"});
  events.push_back({.kind = obs::EventKind::kFault,
                    .run = (1ull << 60) + 3,
                    .time = 81,
                    .actor = 3,
                    .value = {{60.0, 7.0, 0.0, 0.0}},
                    .label = "crash"});
  std::stable_sort(events.begin(), events.end(), obs::event_less);
  return events;
}

TEST_F(RecorderTest, RecordingJsonlSurvivesLoadSaveRoundTrip) {
  const std::vector<obs::Event> events = synthetic_events();
  const std::string first =
      obs::to_recording_jsonl(events, obs::RecordLevel::kFull);
  const auto path =
      std::filesystem::temp_directory_path() / "dsa_recorder_roundtrip.jsonl";
  util::atomic_write(path, first);

  const report::Recording loaded = report::load_recording(path);
  EXPECT_EQ(loaded.level, obs::RecordLevel::kFull);
  ASSERT_EQ(loaded.events.size(), events.size());
  const std::string second =
      obs::to_recording_jsonl(loaded.events, loaded.level);
  EXPECT_EQ(first, second);
  std::filesystem::remove(path);
}

TEST_F(RecorderTest, RecordingWithStrideOtherThanOneIsRejectedByName) {
  const auto path =
      std::filesystem::temp_directory_path() / "dsa_recorder_stride.jsonl";
  for (const char* stride : {"3", "0", "\"1\""}) {
    util::atomic_write(
        path, std::string("{\"type\":\"recording\",\"schema\":1,"
                          "\"level\":\"rounds\",\"stride\":") +
                  stride + ",\"events\":0}\n");
    try {
      (void)report::load_recording(path);
      ADD_FAILURE() << "stride " << stride << " was accepted";
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("stride"), std::string::npos) << message;
      EXPECT_NE(message.find(path.string()), std::string::npos) << message;
    }
  }
  std::filesystem::remove(path);
}

TEST_F(RecorderTest, SaveWritesCanonicalBytes) {
  configure(obs::RecordLevel::kRounds);
  run_round_model();
  obs::Recorder& recorder = obs::Recorder::global();
  const auto path =
      std::filesystem::temp_directory_path() / "dsa_recorder_save.jsonl";
  recorder.save(path);
  EXPECT_EQ(slurp(path), obs::to_recording_jsonl(recorder.snapshot(),
                                                 recorder.level()));
  std::filesystem::remove(path);
}

TEST_F(RecorderTest, ParseRejectsUnknownLevelAndKind) {
  EXPECT_THROW((void)obs::parse_record_level("verbose"),
               std::invalid_argument);
  EXPECT_THROW((void)obs::parse_event_kind("bogus"), std::invalid_argument);
  EXPECT_EQ(obs::parse_record_level("full"), obs::RecordLevel::kFull);
  EXPECT_EQ(obs::parse_event_kind("pra"), obs::EventKind::kPra);
}

// --- Golden extraction: event path == in-memory twin ----------------------

TEST_F(RecorderTest, Fig5TablesFromEventsMatchRecordsPathByteForByte) {
  // A strided sample of real design-space protocol ids, so all three
  // stranger policies and the h = 0 singleton skip path are exercised.
  std::vector<swarming::PraRecord> records;
  std::vector<obs::Event> events;
  for (std::uint32_t id = 0; id < swarming::kProtocolCount; id += 97) {
    swarming::PraRecord rec;
    rec.protocol = id;
    rec.spec = swarming::decode_protocol(id);
    rec.raw_performance = 100.0 + id;
    rec.performance = static_cast<double>(id) / swarming::kProtocolCount;
    rec.robustness = static_cast<double>((id * 31) % 100) / 100.0;
    rec.aggressiveness = static_cast<double>(id % 7) / 7.0;
    records.push_back(rec);
    // Mirror of record_pra_events() in pra_dataset.cpp.
    events.push_back({.kind = obs::EventKind::kPra,
                      .run = id,
                      .actor = id,
                      .value = {{rec.performance, rec.robustness,
                                 rec.aggressiveness, rec.raw_performance}},
                      .label = rec.spec.describe()});
  }

  const auto from_events = report::fig5_robustness_by_policy(
      std::span<const obs::Event>(events));
  const auto from_records = report::fig5_robustness_by_policy(
      std::span<const swarming::PraRecord>(records));
  for (int p = 0; p < 3; ++p) {
    expect_bits_equal(from_events[p], from_records[p]);
    EXPECT_FALSE(from_records[p].empty());
  }
  EXPECT_EQ(report::render_fig5(from_events).text,
            report::render_fig5(from_records).text);
}

TEST_F(RecorderTest, EncounterSeriesFromSwarmEventsMatchesDirectResults) {
  // Two fractions x two runs of the mixed swarm, recorded; the extractor
  // must rebuild exactly the group means the results report directly.
  configure(obs::RecordLevel::kRounds);
  obs::Recorder::global().set_context("golden");
  swarm::SwarmConfig config;
  config.piece_count = 16;
  config.max_ticks = 4000;
  const double cap_seconds = static_cast<double>(config.max_ticks);

  std::vector<double> direct_a;
  for (const std::size_t count_a : {std::size_t{3}, std::size_t{7}}) {
    for (std::uint64_t run = 0; run < 2; ++run) {
      config.seed = 500 + run * 131 + count_a;
      const auto result = swarm::run_mixed_swarm(
          swarm::ClientVariant::kBitTorrent, swarm::ClientVariant::kBirds,
          count_a, 10, config);
      direct_a.push_back(result.group_mean_time(0, count_a, cap_seconds));
    }
  }

  const auto events = obs::Recorder::global().snapshot();
  const auto series = report::encounter_series_from_events(
      std::span<const obs::Event>(events));
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].title, "golden");
  ASSERT_EQ(series[0].points.size(), 2u);
  EXPECT_EQ(series[0].points[0].count_a, 3u);
  EXPECT_EQ(series[0].points[1].count_a, 7u);
  // Mean over the two runs at each fraction, same order as `direct_a`.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(series[0].points[0].mean_a),
            std::bit_cast<std::uint64_t>((direct_a[0] + direct_a[1]) / 2.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(series[0].points[1].mean_a),
            std::bit_cast<std::uint64_t>((direct_a[2] + direct_a[3]) / 2.0));
}

}  // namespace

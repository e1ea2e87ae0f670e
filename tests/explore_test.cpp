// Tests for src/explore and the explore scenario kind: the closed-form
// enumeration oracle (visited + pruned == sum C(m,d) * g^d), partial-order
// pruning against an independently written canonicity predicate, ordinal
// chunking, shrinking to 1-minimal counterexamples, JSON round trips with
// bitwise replay, the sharded explore runner (thread-count invariance,
// kill-and-resume byte identity), and the acceptance claim that the bounded
// search beats 1000 random FaultSpec draws of comparable firepower.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "explore/counterexample.hpp"
#include "explore/explore.hpp"
#include "fault/fault_json.hpp"
#include "fault/fault_plan.hpp"
#include "obs/recorder.hpp"
#include "report/report.hpp"
#include "scenario/explore_kind.hpp"
#include "scenario/plan.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "swarm/swarm_sim.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;
using namespace dsa;
using explore::Assignment;
using explore::Domain;
using explore::FaultTemplate;
using explore::Schedule;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Two crashes and a seeder outage over a 3-tick grid; durations chosen so
/// adjacent tick windows overlap (dependent) while the extreme ticks stay
/// disjoint (independent) — both pruning branches get exercised.
Domain small_domain() {
  Domain domain;
  domain.templates = {
      {FaultTemplate::Kind::kCrash, /*leecher=*/0, /*duration=*/60},
      {FaultTemplate::Kind::kCrash, /*leecher=*/1, /*duration=*/60},
      {FaultTemplate::Kind::kOutage, /*leecher=*/0, /*duration=*/80},
  };
  domain.ticks = {1, 41, 81};
  domain.max_faults = 2;
  return domain;
}

// Fresh reimplementation of the pruning predicate, as the test oracle.
bool windows_disjoint(std::size_t a_begin, std::size_t a_len,
                      std::size_t b_begin, std::size_t b_len) {
  return a_begin + a_len <= b_begin || b_begin + b_len <= a_begin;
}

bool oracle_independent(const Domain& domain, const Assignment& x,
                        const Assignment& y) {
  const FaultTemplate& tx = domain.templates[x.tmpl];
  const FaultTemplate& ty = domain.templates[y.tmpl];
  if (explore::footprint_peer(tx) == explore::footprint_peer(ty)) return false;
  const std::size_t ax = domain.ticks[x.tick_index];
  const std::size_t ay = domain.ticks[y.tick_index];
  // Disjoint under the chosen assignment AND under the tick swap.
  return windows_disjoint(ax, tx.duration, ay, ty.duration) &&
         windows_disjoint(ay, tx.duration, ax, ty.duration);
}

bool oracle_canonical(const Domain& domain, const Schedule& schedule) {
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    for (std::size_t j = i + 1; j < schedule.size(); ++j) {
      if (oracle_independent(domain, schedule[i], schedule[j]) &&
          domain.ticks[schedule[i].tick_index] >
              domain.ticks[schedule[j].tick_index]) {
        return false;
      }
    }
  }
  return true;
}

/// Every raw schedule of the space, depth-major, subsets lexicographic,
/// tick odometer last-fastest — the walker's documented ordinal order.
std::vector<Schedule> brute_force_schedules(const Domain& domain) {
  std::vector<Schedule> all;
  all.push_back({});
  const std::size_t m = domain.templates.size();
  const std::size_t g = domain.ticks.size();
  const auto next_combination = [m](std::vector<std::size_t>& subset) {
    const std::size_t depth = subset.size();
    for (std::size_t i = depth; i-- > 0;) {
      if (subset[i] + (depth - i) < m) {
        ++subset[i];
        for (std::size_t j = i + 1; j < depth; ++j) {
          subset[j] = subset[j - 1] + 1;
        }
        return true;
      }
    }
    return false;
  };
  const auto next_ticks = [g](std::vector<std::size_t>& ticks) {
    for (std::size_t i = ticks.size(); i-- > 0;) {
      if (++ticks[i] < g) return true;
      ticks[i] = 0;
    }
    return false;
  };
  for (std::size_t depth = 1; depth <= std::min(domain.max_faults, m);
       ++depth) {
    // Ascending template subsets of the given size, lexicographic.
    std::vector<std::size_t> subset(depth);
    for (std::size_t i = 0; i < depth; ++i) subset[i] = i;
    do {
      std::vector<std::size_t> ticks(depth, 0);
      do {
        Schedule schedule;
        for (std::size_t i = 0; i < depth; ++i) {
          schedule.push_back({subset[i], ticks[i]});
        }
        all.push_back(schedule);
      } while (next_ticks(ticks));
    } while (next_combination(subset));
  }
  return all;
}

std::uint64_t closed_form(std::size_t m, std::size_t g, std::size_t k) {
  std::uint64_t total = 0;
  for (std::size_t d = 0; d <= std::min(k, m); ++d) {
    std::uint64_t binom = 1;
    for (std::size_t i = 0; i < d; ++i) binom = binom * (m - i) / (i + 1);
    std::uint64_t pow = 1;
    for (std::size_t i = 0; i < d; ++i) pow *= g;
    total += binom * pow;
  }
  return total;
}

// ----------------------------------------------------------- enumeration ----

TEST(ExploreEnumeration, CountSpaceMatchesClosedForm) {
  Domain domain;
  domain.templates = {
      {FaultTemplate::Kind::kCrash, 0, 60},
      {FaultTemplate::Kind::kCrash, 1, 60},
      {FaultTemplate::Kind::kCrash, 2, 60},
      {FaultTemplate::Kind::kOutage, 0, 80},
  };
  domain.ticks = {1, 31, 61, 91, 121};
  domain.max_faults = 3;
  EXPECT_EQ(explore::count_space(domain), closed_form(4, 5, 3));  // 671

  domain.max_faults = 0;
  EXPECT_EQ(explore::count_space(domain), 1u);  // the fault-free baseline

  domain.max_faults = 9;  // delta bound above m clamps to m
  EXPECT_EQ(explore::count_space(domain), closed_form(4, 5, 4));
}

TEST(ExploreEnumeration, VisitedPlusPrunedEqualsOracleAndMatchesPredicate) {
  const Domain domain = small_domain();
  const std::uint64_t space = explore::count_space(domain);
  EXPECT_EQ(space, closed_form(3, 3, 2));  // 37

  std::set<std::string> visited;
  std::vector<std::uint64_t> ordinals;
  const explore::SpaceCount counts = explore::for_each_schedule(
      domain, [&](std::uint64_t ordinal, const Schedule& schedule) {
        ordinals.push_back(ordinal);
        EXPECT_TRUE(visited.insert(explore::describe(domain, schedule)).second);
      });
  EXPECT_EQ(counts.total, space);
  EXPECT_EQ(counts.visited + counts.pruned, counts.total);
  EXPECT_EQ(counts.visited, visited.size());
  EXPECT_GT(counts.pruned, 0u);  // the domain has independent pairs

  // Ordinals are strictly ascending within one walk.
  for (std::size_t i = 1; i < ordinals.size(); ++i) {
    EXPECT_LT(ordinals[i - 1], ordinals[i]);
  }

  // The visited set is exactly the canonical set of the fresh predicate,
  // and every pruned schedule's tick-swapped twin is canonical (so the
  // pruned region is covered by a visited representative).
  const std::vector<Schedule> all = brute_force_schedules(domain);
  ASSERT_EQ(all.size(), space);
  std::size_t canonical = 0;
  for (const Schedule& schedule : all) {
    if (oracle_canonical(domain, schedule)) {
      ++canonical;
      EXPECT_TRUE(visited.count(explore::describe(domain, schedule)))
          << explore::describe(domain, schedule);
    } else {
      EXPECT_FALSE(visited.count(explore::describe(domain, schedule)))
          << explore::describe(domain, schedule);
      if (schedule.size() == 2) {
        const Schedule twin = {{schedule[0].tmpl, schedule[1].tick_index},
                               {schedule[1].tmpl, schedule[0].tick_index}};
        EXPECT_TRUE(oracle_canonical(domain, twin))
            << explore::describe(domain, twin);
      }
    }
  }
  EXPECT_EQ(counts.visited, canonical);
}

TEST(ExploreEnumeration, ChunkedWalkEqualsFullWalk) {
  const Domain domain = small_domain();
  const std::uint64_t space = explore::count_space(domain);

  std::vector<std::pair<std::uint64_t, std::string>> full;
  const explore::SpaceCount full_counts = explore::for_each_schedule(
      domain, [&](std::uint64_t ordinal, const Schedule& schedule) {
        full.emplace_back(ordinal, explore::describe(domain, schedule));
      });

  // Any chunking must concatenate to the full walk and its SpaceCounts
  // must sum per range — the invariant the sharded runner relies on.
  for (const std::uint64_t chunk : {1ull, 7ull, 36ull, 500ull}) {
    std::vector<std::pair<std::uint64_t, std::string>> chunked;
    explore::SpaceCount sums;
    for (std::uint64_t begin = 0; begin < space; begin += chunk) {
      const explore::SpaceCount counts = explore::for_schedules_in(
          domain, begin, begin + chunk,
          [&](std::uint64_t ordinal, const Schedule& schedule) {
            chunked.emplace_back(ordinal, explore::describe(domain, schedule));
          });
      sums.total += counts.total;
      sums.visited += counts.visited;
      sums.pruned += counts.pruned;
    }
    EXPECT_EQ(chunked, full) << "chunk size " << chunk;
    EXPECT_EQ(sums.total, full_counts.total);
    EXPECT_EQ(sums.visited, full_counts.visited);
    EXPECT_EQ(sums.pruned, full_counts.pruned);
  }

  // Out-of-range and empty ranges are clamped, not errors.
  const explore::SpaceCount beyond =
      explore::for_schedules_in(domain, space, space + 10,
                                [](std::uint64_t, const Schedule&) {
                                  FAIL() << "nothing to visit";
                                });
  EXPECT_EQ(beyond.total, 0u);
}

TEST(ExploreEnumeration, DomainValidationNamesTheOffendingField) {
  const auto message = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "";
  };

  Domain no_templates = small_domain();
  no_templates.templates.clear();
  EXPECT_NE(message([&] { no_templates.validate(20); }).find("templates"),
            std::string::npos);

  Domain zero_duration = small_domain();
  zero_duration.templates[1].duration = 0;
  EXPECT_NE(message([&] { zero_duration.validate(20); }).find("duration"),
            std::string::npos);

  Domain bad_leecher = small_domain();
  bad_leecher.templates[0].leecher = 20;
  EXPECT_NE(message([&] { bad_leecher.validate(20); }).find("leecher"),
            std::string::npos);

  Domain unsorted = small_domain();
  unsorted.ticks = {41, 41, 81};
  EXPECT_NE(message([&] { unsorted.validate(20); }).find("ascending"),
            std::string::npos);

  Domain past_horizon = small_domain();
  EXPECT_NE(message([&] {
              past_horizon.validate(20, /*max_ticks=*/81);
            }).find("horizon"),
            std::string::npos);

  Domain huge = small_domain();
  huge.templates.assign(40, {FaultTemplate::Kind::kCrash, 0, 10});
  huge.ticks.resize(100);
  for (std::size_t i = 0; i < huge.ticks.size(); ++i) huge.ticks[i] = i + 1;
  huge.max_faults = 6;
  EXPECT_NE(message([&] { huge.validate(50); }).find("space"),
            std::string::npos);
}

TEST(ExploreEnumeration, DescribeAndMaterializeAgree) {
  const Domain domain = small_domain();
  EXPECT_EQ(explore::describe(domain, {}), "none");
  const Schedule schedule = {{0, 2}, {2, 0}};
  EXPECT_EQ(explore::describe(domain, schedule), "crash:l0@81x60;outage@1x80");

  const fault::FaultPlan plan =
      explore::materialize(domain, schedule, /*message_loss=*/0.1);
  EXPECT_EQ(plan.message_loss, 0.1);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].leecher, 0u);
  EXPECT_EQ(plan.crashes[0].tick, 81u);
  EXPECT_EQ(plan.crashes[0].downtime, 60u);
  ASSERT_EQ(plan.seeder_outages.size(), 1u);
  EXPECT_EQ(plan.seeder_outages[0].begin_tick, 1u);
  EXPECT_EQ(plan.seeder_outages[0].end_tick, 81u);
  plan.validate(20);
}

TEST(ExploreEnumeration, MaterializeUnionsOverlappingOutageWindows) {
  // Two outage templates always share the seeder footprint (dependent), so
  // overlapping assignments are enumerated — the materialized plan must
  // union them into one window or FaultPlan::validate would reject it.
  Domain domain;
  domain.templates = {
      {FaultTemplate::Kind::kOutage, 0, 80},
      {FaultTemplate::Kind::kOutage, 0, 80},
  };
  domain.ticks = {1, 41};
  domain.max_faults = 2;
  const fault::FaultPlan plan =
      explore::materialize(domain, {{0, 0}, {1, 1}}, 0.0);
  ASSERT_EQ(plan.seeder_outages.size(), 1u);
  EXPECT_EQ(plan.seeder_outages[0].begin_tick, 1u);
  EXPECT_EQ(plan.seeder_outages[0].end_tick, 121u);
  plan.validate(20);
}

// ---------------------------------------------------- objective + shrink ----

TEST(ExploreObjective, ParsesAndScoresWithUnfinishedCap) {
  EXPECT_EQ(explore::parse_objective("mean_time"),
            explore::Objective::kMeanTime);
  EXPECT_EQ(explore::parse_objective("max_time"), explore::Objective::kMaxTime);
  EXPECT_EQ(explore::parse_objective("stall_ticks"),
            explore::Objective::kStallTicks);
  EXPECT_THROW((void)explore::parse_objective("fastest"),
               std::invalid_argument);
  for (const auto objective :
       {explore::Objective::kMeanTime, explore::Objective::kMaxTime,
        explore::Objective::kStallTicks}) {
    EXPECT_EQ(explore::parse_objective(explore::to_string(objective)),
              objective);
  }

  swarm::SwarmResult result;
  result.completion_time = {100.0, 300.0, -1.0};  // one never finished
  result.fault_stats.stall_ticks = 42;
  EXPECT_DOUBLE_EQ(explore::objective_value(explore::Objective::kMeanTime,
                                            result, 500.0),
                   300.0);
  EXPECT_DOUBLE_EQ(
      explore::objective_value(explore::Objective::kMaxTime, result, 500.0),
      500.0);
  EXPECT_DOUBLE_EQ(explore::objective_value(explore::Objective::kStallTicks,
                                            result, 500.0),
                   42.0);
}

TEST(ExploreShrink, ProducesAOneMinimalSchedule) {
  // Synthetic objective: only templates 0 and 2 matter, 50 points each.
  const Schedule worst = {{0, 0}, {1, 1}, {2, 0}, {3, 2}};
  const explore::EvaluateFn evaluate = [](const Schedule& schedule) {
    double value = 0.0;
    for (const Assignment& a : schedule) {
      if (a.tmpl == 0 || a.tmpl == 2) value += 50.0;
    }
    return value;
  };
  const explore::ShrinkResult shrunk = explore::shrink(worst, 100.0, evaluate);
  ASSERT_EQ(shrunk.schedule.size(), 2u);
  EXPECT_EQ(shrunk.schedule[0].tmpl, 0u);
  EXPECT_EQ(shrunk.schedule[1].tmpl, 2u);
  EXPECT_EQ(shrunk.value, 100.0);
  EXPECT_GT(shrunk.evaluations, 0u);
  // 1-minimality: removing any remaining assignment falls below the target.
  for (std::size_t i = 0; i < shrunk.schedule.size(); ++i) {
    Schedule candidate = shrunk.schedule;
    candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_LT(evaluate(candidate), 100.0);
  }

  // A schedule that cannot shrink comes back unchanged.
  const Schedule tight = {{0, 0}, {2, 1}};
  const explore::ShrinkResult kept = explore::shrink(tight, 100.0, evaluate);
  EXPECT_EQ(kept.schedule.size(), 2u);
  EXPECT_EQ(kept.evaluations, 2u);  // tried (and rejected) both drops
}

// ------------------------------------------------------- JSON round trips ----

TEST(ExploreJson, FaultPlanRoundTripsThroughDisk) {
  fault::FaultPlan plan;
  plan.message_loss = 0.125;
  plan.seeder_outages.push_back({5, 45});
  plan.crashes.push_back({3, 17, 12});

  const fs::path path = fs::temp_directory_path() /
                        ("dsa_explore_plan_" +
                         std::to_string(static_cast<long long>(::getpid())) +
                         ".json");
  fault::save_fault_plan(path, plan);
  EXPECT_NE(fault::to_json(plan).find("\"schema\":2,"), std::string::npos);
  const fault::FaultPlan loaded = fault::load_fault_plan(path);
  EXPECT_EQ(fault::to_json(loaded), fault::to_json(plan));
  EXPECT_EQ(loaded.message_loss, plan.message_loss);
  ASSERT_EQ(loaded.crashes.size(), 1u);
  EXPECT_EQ(loaded.crashes[0].tick, 17u);
  fs::remove(path);
}

TEST(ExploreJson, CounterexampleReplaysBitwise) {
  explore::Counterexample ce;
  ce.plan.seeder_outages.push_back({1, 81});
  ce.a = "bt";
  ce.b = "same";
  ce.count_a = 5;
  ce.total = 10;
  ce.seed = 7;
  ce.piece_count = 20;
  ce.max_ticks = 2000;
  ce.objective = "mean_time";
  ce.schedule = "outage@1x80";

  // Record the value the run actually produces, then round-trip and replay.
  const swarm::SwarmResult original = explore::run_counterexample(ce);
  ce.value = explore::objective_value(explore::parse_objective(ce.objective),
                                      original,
                                      static_cast<double>(ce.max_ticks));

  const fs::path path = fs::temp_directory_path() /
                        ("dsa_explore_ce_" +
                         std::to_string(static_cast<long long>(::getpid())) +
                         ".json");
  explore::save_counterexample(path, ce);
  const explore::Counterexample loaded = explore::load_counterexample(path);
  EXPECT_EQ(explore::to_json(loaded), explore::to_json(ce));

  const swarm::SwarmResult replayed = explore::run_counterexample(loaded);
  EXPECT_EQ(replayed.completion_time, original.completion_time);
  EXPECT_EQ(explore::objective_value(
                explore::parse_objective(loaded.objective), replayed,
                static_cast<double>(loaded.max_ticks)),
            loaded.value);
  fs::remove(path);
}

/// Writes `text` to a per-process temp file and returns the loader's error
/// message ("" when it loads).
std::string fault_plan_load_error(const std::string& text) {
  const fs::path path = fs::temp_directory_path() /
                        ("dsa_explore_schema_" +
                         std::to_string(static_cast<long long>(::getpid())) +
                         ".json");
  std::ofstream(path) << text;
  std::string error;
  try {
    (void)fault::load_fault_plan(path);
  } catch (const std::exception& e) {
    error = e.what();
  }
  fs::remove(path);
  return error;
}

TEST(ExploreJson, CommittedCounterexampleStillReplays) {
  // A schema-1 document: piece_timeout_ticks 0 plus the backoff keys that
  // schema 2 dropped. It must load and reproduce its recorded value.
  const explore::Counterexample ce = explore::load_counterexample(
      fs::path(DSA_SOURCE_DIR) / "examples/faults/minimal_counterexample.json");
  EXPECT_EQ(ce.value, 147.55);
  const swarm::SwarmResult replayed = explore::run_counterexample(ce);
  EXPECT_EQ(explore::objective_value(explore::Objective::kMeanTime, replayed,
                                     static_cast<double>(ce.max_ticks)),
            ce.value);
}

TEST(ExploreJson, SchemaOnePlanWithATimeoutIsRejectedByName) {
  const std::string error = fault_plan_load_error(
      R"({"type":"fault_plan","schema":1,"message_loss":0,)"
      R"("piece_timeout_ticks":5,"retry_backoff_ticks":4,)"
      R"("max_backoff_ticks":64,"seeder_outages":[],"crashes":[]})");
  EXPECT_NE(error.find("$.piece_timeout_ticks"), std::string::npos) << error;
  EXPECT_NE(error.find("removed in fault_plan schema 2"), std::string::npos)
      << error;
  EXPECT_EQ(fault_plan_load_error(
                R"({"type":"fault_plan","schema":1,"piece_timeout_ticks":0,)"
                R"("retry_backoff_ticks":4,"max_backoff_ticks":64})"),
            "");
}

TEST(ExploreJson, SchemaTwoRejectsTheRemovedKeys) {
  for (const char* key :
       {"piece_timeout_ticks", "retry_backoff_ticks", "max_backoff_ticks"}) {
    const std::string error = fault_plan_load_error(
        std::string(R"({"type":"fault_plan","schema":2,")") + key +
        R"(":0})");
    EXPECT_NE(error.find(std::string("unknown key \"") + key + "\""),
              std::string::npos)
        << error;
  }
  EXPECT_NE(fault_plan_load_error(R"({"type":"fault_plan","schema":3})")
                .find("unsupported fault_plan schema"),
            std::string::npos);
}

// ----------------------------------------------------- failure reporting ----

TEST(ExploreReport, FaultTimelineRendersEventsChronologically) {
  std::vector<obs::Event> events;
  events.push_back({.kind = obs::EventKind::kFault,
                    .run = 1,
                    .time = 1,
                    .actor = 0,
                    .value = {{81.0, 0.0, 0.0, 0.0}},
                    .label = "outage_begin"});
  events.push_back({.kind = obs::EventKind::kFault,
                    .run = 1,
                    .time = 40,
                    .actor = 3,
                    .value = {{60.0, 7.0, 0.0, 0.0}},
                    .label = "crash"});
  events.push_back({.kind = obs::EventKind::kFault,
                    .run = 1,
                    .time = 81,
                    .actor = 0,
                    .value = {{80.0, 0.0, 0.0, 0.0}},
                    .label = "outage_end"});
  const std::string text = report::render_fault_timeline(events);
  EXPECT_NE(text.find("Fault timeline"), std::string::npos);
  EXPECT_NE(text.find("seeder"), std::string::npos);
  EXPECT_NE(text.find("leecher 2"), std::string::npos);  // actor 3 = leecher 2
  EXPECT_NE(text.find("until tick 81"), std::string::npos);
  EXPECT_NE(text.find("down 60 ticks, wiped 7 pieces"), std::string::npos);
  EXPECT_NE(text.find("dark for 80 ticks"), std::string::npos);

  const std::string empty = report::render_fault_timeline({});
  EXPECT_NE(empty.find("no fault events"), std::string::npos);
}

TEST(ExploreReport, FaultImpactContrastsWorstAgainstBaseline) {
  const auto leecher = [](std::uint32_t actor, double capacity, double time) {
    return obs::Event{.kind = obs::EventKind::kLeecher,
                      .run = 1,
                      .actor = actor,
                      .value = {{capacity, time, 0.0, 0.0}},
                      .label = "bt"};
  };
  const std::vector<obs::Event> worst = {leecher(0, 50.0, 140.0),
                                         leecher(1, 80.0, -1.0)};
  const std::vector<obs::Event> baseline = {leecher(0, 50.0, 60.0),
                                            leecher(1, 80.0, 55.0)};
  const std::string text = report::render_fault_impact(worst, baseline);
  EXPECT_NE(text.find("Per-leecher impact"), std::string::npos);
  EXPECT_NE(text.find("80.0"), std::string::npos);   // delta of leecher 0
  EXPECT_NE(text.find("-"), std::string::npos);      // unfinished leecher 1
  EXPECT_NE(text.find("1 leecher(s) never finished"), std::string::npos);
}

// ------------------------------------------------------- scenario runner ----

class ExploreScenario : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("dsa_explore_test_" + std::string(info->name()) + "_" +
            std::to_string(static_cast<long long>(::getpid())));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A small explore spec: 2 crash templates + 1 outage over a 3-tick grid,
  /// 37 schedules, sharded 5 per job.
  scenario::Plan explore_plan(const std::string& name,
                              std::size_t tick_count = 3,
                              std::size_t max_faults = 2) const {
    const std::string json =
        R"({"scenario": "explore-test", "kind": "explore", "output": ")" +
        (dir_ / name).string() + R"(", "chunk": 5, "params": {
          "a": "bt", "total": 20, "seed": 500, "max_ticks": 2000,
          "crash_leechers": 2, "crash_downtime": 60,
          "outage_count": 1, "outage_length": 80,
          "tick_start": 1, "tick_step": 40, "tick_count": )" +
        std::to_string(tick_count) + R"(, "max_faults": )" +
        std::to_string(max_faults) + R"(, "objective": "mean_time"}})";
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

TEST_F(ExploreScenario, RowCountMatchesOracleMinusPruned) {
  // The pinned acceptance spec: n = 20 leechers, up to 3 simultaneous
  // faults. The merged CSV must hold exactly the canonical schedules —
  // closed form minus pruned — and start with the ordinal-0 baseline.
  const scenario::Plan plan = explore_plan("oracle.csv", /*tick_count=*/6,
                                           /*max_faults=*/3);
  const scenario::ExploreContext ctx =
      scenario::explore_context(plan.jobs.front().params);
  EXPECT_EQ(explore::count_space(ctx.domain), closed_form(3, 6, 3));  // 343

  const explore::SpaceCount counts = explore::for_each_schedule(
      ctx.domain, [](std::uint64_t, const Schedule&) {});
  EXPECT_EQ(counts.visited + counts.pruned, closed_form(3, 6, 3));

  scenario::run_scenario(plan, quiet(2));
  const util::CsvTable table = util::CsvTable::load(plan.spec.output);
  EXPECT_EQ(table.row_count(), counts.visited);
  EXPECT_EQ(table.at(0, "ordinal"), "0");
  EXPECT_EQ(table.at(0, "schedule"), "none");
}

TEST_F(ExploreScenario, ThreadCountNeverChangesOutputBytes) {
  const scenario::Plan one = explore_plan("one.csv");
  const scenario::Plan three = explore_plan("three.csv");
  scenario::run_scenario(one, quiet(1));
  scenario::run_scenario(three, quiet(3));
  const std::string bytes = read_file(one.spec.output);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_file(three.spec.output));
}

TEST_F(ExploreScenario, KillAndResumeIsByteIdentical) {
  const scenario::Plan reference = explore_plan("reference.csv");
  scenario::run_scenario(reference, quiet(1));
  const std::string expected = read_file(reference.spec.output);

  const scenario::Plan plan = explore_plan("resumed.csv");
  ASSERT_GT(plan.jobs.size(), 3u);
  scenario::RunOptions abort_options = quiet(1);
  abort_options.max_jobs = 3;
  EXPECT_THROW(scenario::run_scenario(plan, abort_options),
               scenario::RunAborted);
  EXPECT_FALSE(fs::exists(plan.spec.output));
  EXPECT_EQ(scenario::completed_jobs_in_manifest(plan),
            (std::vector<std::size_t>{0, 1, 2}));

  const scenario::RunReport report = scenario::run_scenario(plan, quiet(2));
  EXPECT_EQ(report.skipped, 3u);
  EXPECT_EQ(read_file(plan.spec.output), expected);
  EXPECT_FALSE(fs::exists(scenario::manifest_path(plan)));
}

TEST_F(ExploreScenario, SpecCrossFieldViolationsAreRejectedAtPlanTime) {
  const std::string json =
      R"({"scenario": "bad", "kind": "explore", "output": ")" +
      (dir_ / "bad.csv").string() + R"(", "params": {
        "total": 4, "crash_leechers": 9}})";
  try {
    (void)scenario::expand_plan(scenario::parse_scenario_text(json));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("crash_leechers"), std::string::npos) << what;
    EXPECT_NE(what.find("9"), std::string::npos) << what;
  }
}

TEST_F(ExploreScenario, BoundedSearchBeatsRandomFaultSpecDraws) {
  // Acceptance: against 1000 random FaultSpec draws of comparable
  // firepower — the same fault classes (crashes + one outage, no ambient
  // loss), windows drawn from a 300-tick horizon whose maxima stay at or
  // below the domain's template durations — the exhaustive bounded search
  // (127 simulations here, well under the random budget) must find a
  // strictly worse schedule than the best random draw.
  const scenario::Plan plan = explore_plan("beats.csv", /*tick_count=*/6,
                                           /*max_faults=*/2);
  const scenario::ExploreContext ctx =
      scenario::explore_context(plan.jobs.front().params);

  double explorer_worst = 0.0;
  std::uint64_t simulated = 0;
  explore::for_each_schedule(
      ctx.domain, [&](std::uint64_t, const Schedule& schedule) {
        const double value = scenario::explore_value(
            ctx, scenario::run_explore_schedule(ctx, schedule));
        explorer_worst = std::max(explorer_worst, value);
        ++simulated;
      });
  EXPECT_LE(simulated, 1000u);  // equal (in fact smaller) sim budget

  util::Rng rng(2026);
  double random_worst = 0.0;
  for (std::size_t draw = 0; draw < 1000; ++draw) {
    fault::FaultSpec spec;
    spec.intensity = rng.uniform();
    spec.crash_fraction = 0.1;  // two victims at full intensity, like the domain
    spec.outage_fraction = 0.25 * rng.uniform();
    spec.seed = draw;
    swarm::SwarmConfig config = ctx.config;
    config.faults = fault::make_fault_plan(spec, ctx.total,
                                           /*horizon_ticks=*/300);
    config.faults.message_loss = 0.0;  // the domain has no ambient loss
    const swarm::SwarmResult result =
        swarm::run_mixed_swarm(ctx.a, ctx.b, ctx.count_a, ctx.total, config);
    random_worst =
        std::max(random_worst, scenario::explore_value(ctx, result));
  }
  EXPECT_GT(explorer_worst, random_worst);
}

}  // namespace

// swarm-faults: serial piece-level swarms of the Sec. 5 setup (50
// leechers, a 128 KBps seeder, 80 pieces of 64 KB) over every ordered
// pairing of the five clients, two minority fractions and five fault
// intensities. The 250-run grid is the same for every seed; the seed picks
// each run's swarm and fault seeds and the order of the runs.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "fault/fault_plan.hpp"
#include "swarm/swarm_sim.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using dsa::swarm::ClientVariant;
using dsa::swarm::SwarmConfig;
using dsa::swarm::SwarmResult;

constexpr std::size_t kLeechers = 50;
constexpr std::size_t kHorizon = 600;  // ticks faults are scheduled within
constexpr std::size_t kZeroPlanChecks = 3;

constexpr ClientVariant kClients[] = {
    ClientVariant::kBitTorrent, ClientVariant::kBirds,
    ClientVariant::kLoyalWhenNeeded, ClientVariant::kSortSlowest,
    ClientVariant::kRandomRank};
constexpr double kFractions[] = {0.1, 0.5};
constexpr double kIntensities[] = {0.0, 0.25, 0.5, 0.75, 1.0};

struct Run {
  ClientVariant a;
  ClientVariant b;
  std::size_t count_a;
  double intensity;
  SwarmConfig config;  // carries the run's seed and fault plan
};

/// The grid in a seed-shuffled order, with a fault plan built per run;
/// `plan_ns` accumulates the time spent in make_fault_plan + validate.
std::vector<Run> make_runs(std::uint64_t seed, std::int64_t& plan_ns) {
  InputRng rng(seed);
  std::vector<Run> runs;
  for (const ClientVariant a : kClients) {
    for (const ClientVariant b : kClients) {
      for (const double fraction : kFractions) {
        for (const double intensity : kIntensities) {
          Run run{a, b,
                  static_cast<std::size_t>(
                      std::lround(fraction * static_cast<double>(kLeechers))),
                  intensity, SwarmConfig{}};
          run.config.seed = rng.next() >> 16;
          dsa::fault::FaultSpec spec;
          spec.intensity = intensity;
          spec.seed = rng.next() >> 16;
          const std::int64_t start = now_ns();
          run.config.faults =
              dsa::fault::make_fault_plan(spec, kLeechers, kHorizon);
          run.config.faults.validate(kLeechers, run.config.max_ticks);
          plan_ns += now_ns() - start;
          runs.push_back(std::move(run));
        }
      }
    }
  }
  rng.shuffle(runs);
  return runs;
}

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

bool same_result(const SwarmResult& x, const SwarmResult& y) {
  const auto& fx = x.fault_stats;
  const auto& fy = y.fault_stats;
  return same_bits(x.completion_time, y.completion_time) &&
         same_bits(x.uploaded_kb, y.uploaded_kb) &&
         same_bits(x.downloaded_kb, y.downloaded_kb) &&
         x.all_completed == y.all_completed &&
         fx.messages_lost == fy.messages_lost &&
         fx.retries_issued == fy.retries_issued &&
         fx.crashes == fy.crashes && fx.stall_ticks == fy.stall_ticks &&
         fx.seeder_down_ticks == fy.seeder_down_ticks;
}

/// Ticks the run lasted: every leecher arrives at tick 0, so the last
/// completion ends the tick loop.
double ticks_run(const SwarmResult& result) {
  const auto last = std::max_element(result.completion_time.begin(),
                                     result.completion_time.end());
  return last == result.completion_time.end() ? 0.0 : *last + 1.0;
}

}  // namespace

Outcome run_swarm_faults(const Options& options, RefKernel& ref) {
  Outcome outcome;
  std::vector<Run> runs;
  std::vector<double> plan_us;
  const std::vector<double> setup_s = time_setups(
      [&] { runs.clear(); },
      [&] {
        std::int64_t plan_ns = 0;
        runs = make_runs(options.seed, plan_ns);
        plan_us.push_back(static_cast<double>(plan_ns) / 1e3 /
                          static_cast<double>(runs.size()));
        // Warm-up: one fixed faulty run.
        SwarmConfig warm;
        dsa::fault::FaultSpec spec;
        spec.intensity = 0.5;
        warm.faults = dsa::fault::make_fault_plan(spec, kLeechers, kHorizon);
        (void)dsa::swarm::run_mixed_swarm(ClientVariant::kBitTorrent,
                                          ClientVariant::kBitTorrent, 25,
                                          kLeechers, warm);
      });

  struct Traced {
    double ticks = 0;
    double lost = 0;
    double retries = 0;
    std::size_t ops = 0;
  } traced;
  std::vector<std::size_t> zero_ops;  // ops whose plan has intensity 0
  LoopResult loop = run_loop(
      options,
      [&](std::size_t index) {
        const Run& run = runs[index % runs.size()];
        if (run.intensity == 0.0) zero_ops.push_back(index);
        SwarmResult result;
        {
          ScopedSpan span("swarm.run");
          result = dsa::swarm::run_mixed_swarm(run.a, run.b, run.count_a,
                                               kLeechers, run.config);
        }
        const SwarmConfig& c = run.config;
        const double file_kb =
            static_cast<double>(c.piece_count) * c.piece_size_kb;
        const double ticks = ticks_run(result);
        if (SpanLog::global().enabled()) {
          traced.ticks += ticks;
          traced.lost += static_cast<double>(result.fault_stats.messages_lost);
          traced.retries +=
              static_cast<double>(result.fault_stats.retries_issued);
          ++traced.ops;
        }
        if (options.corrupt == "swarm.complete") result.all_completed = false;
        if (options.corrupt == "swarm.file") {
          // Move bytes between two leechers: the sums stay the same.
          const double moved = result.downloaded_kb[0] - (file_kb - 1.0);
          result.downloaded_kb[0] -= moved;
          result.downloaded_kb[1] += moved;
        }
        if (options.corrupt == "swarm.conservation") {
          result.downloaded_kb[0] += c.seeder_capacity_kbps * (ticks + 1.0);
        }
        double up = 0.0;
        double down = 0.0;
        for (std::size_t l = 0; l < kLeechers; ++l) {
          up += result.uploaded_kb[l];
          down += result.downloaded_kb[l];
        }
        // Relative slack for summation order only.
        const double slack = 1e-9 * (down + 1.0);
        bool ok = true;
        const auto fail = [&](const std::string& what) {
          fail_check(outcome, "swarm run " + std::to_string(index) + ": " +
                                  what);
          ok = false;
        };
        if (!result.all_completed) fail("a leecher did not complete");
        if (!(up <= down + slack &&
              down <= up + c.seeder_capacity_kbps * ticks + slack)) {
          fail("leecher bytes not conserved");
        }
        for (std::size_t l = 0; l < kLeechers; ++l) {
          if (result.completion_time[l] >= 0.0 &&
              result.downloaded_kb[l] < file_kb - 1e-6) {
            fail("leecher " + std::to_string(l) +
                 " completed below the file size");
            break;
          }
        }
        return ok;
      },
      ref);

  // An intensity-0 plan must leave the run bit-identical to one with a
  // default-constructed FaultPlan; re-run a seed-chosen sample of the
  // loop's intensity-0 ops both ways.
  {
    InputRng rng(options.seed ^ 0x2e70ULL);
    for (std::size_t i = 0; i < kZeroPlanChecks && !zero_ops.empty(); ++i) {
      const std::size_t op = zero_ops[rng.below(zero_ops.size())];
      const Run& run = runs[op % runs.size()];
      SwarmConfig plain = run.config;
      plain.faults = dsa::fault::FaultPlan{};
      const SwarmResult x = dsa::swarm::run_mixed_swarm(
          run.a, run.b, run.count_a, kLeechers, run.config);
      SwarmResult y = dsa::swarm::run_mixed_swarm(run.a, run.b, run.count_a,
                                                  kLeechers, plain);
      if (options.corrupt == "swarm.zero_plan") y.uploaded_kb[0] += 1e-9;
      if (!same_result(x, y)) {
        fail_check(outcome,
                   "intensity-0 plan differs from the default FaultPlan");
        loop.ok[op] = false;
      }
    }
  }
  count_ops(loop, outcome);

  outcome.setup_samples_s = setup_s;
  outcome.end_to_end = end_to_end_metrics(setup_s, loop);
  add_common_layers(loop, outcome.per_layer);
  if (!options.trace) return outcome;

  std::vector<Metric>& layers = outcome.per_layer;
  const SpanLog::Totals swarm_runs = SpanLog::global().totals("swarm.run");
  const double ops = static_cast<double>(std::max<std::size_t>(traced.ops, 1));
  const double wall_ms = static_cast<double>(loop.traced.wall_ns) / 1e6;
  layers.push_back({"swarm.run_ms",
                    swarm_runs.total_ms /
                        static_cast<double>(std::max<std::size_t>(
                            swarm_runs.count, 1)),
                    "ms"});
  layers.push_back({"swarm.tick_us",
                    traced.ticks > 0 ? swarm_runs.total_ms * 1e3 / traced.ticks
                                     : 0.0,
                    "us"});
  layers.push_back({"swarm.ticks", traced.ticks / ops, "count"});
  layers.push_back({"fault.plan_us", median(plan_us), "us"});
  layers.push_back({"fault.messages_lost", traced.lost / ops, "count"});
  layers.push_back({"fault.retries", traced.retries / ops, "count"});
  layers.push_back({"residual_frac", 1.0 - swarm_runs.total_ms / wall_ms,
                    "frac"});
  return outcome;
}

}  // namespace perfbench

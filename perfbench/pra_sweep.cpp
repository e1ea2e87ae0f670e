// pra-sweep: the paper's core computation. Each op quantifies one protocol
// (PraEngine::quantify(p, p + 1)) on a 2-worker pool at the scale of the
// committed results/pra_results.csv: population 50, 120 rounds, 3
// performance runs, 1 encounter run, 24 sampled opponents.
#include <cmath>
#include <memory>

#include "core/pra.hpp"
#include "scenario/spec.hpp"
#include "swarming/dsa_model.hpp"
#include "stats/descriptive.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using dsa::core::EncounterModel;
using dsa::core::PraConfig;
using dsa::core::PraEngine;
using dsa::core::ProtocolMetrics;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kRounds = 120;
constexpr std::uint32_t kStratum = 10;  // one sampled protocol per 10 ids
constexpr std::size_t kSerialChecks = 3;

PraConfig pra_config() {
  PraConfig config;
  config.population = 50;
  config.performance_runs = 3;
  config.encounter_runs = 1;
  config.opponent_sample = 24;
  config.minority_fraction = 0.1;
  config.seed = 2011;
  return config;
}

/// Benchmark-side decorator: records a span around every call into the
/// round model, forwarding everything else unchanged.
class TimedModel final : public EncounterModel {
 public:
  explicit TimedModel(const EncounterModel& inner) : inner_(inner) {}

  [[nodiscard]] std::uint32_t protocol_count() const override {
    return inner_.protocol_count();
  }
  [[nodiscard]] std::string protocol_name(std::uint32_t id) const override {
    return inner_.protocol_name(id);
  }
  [[nodiscard]] double homogeneous_utility(std::uint32_t protocol,
                                           std::size_t population,
                                           std::uint64_t seed) const override {
    ScopedSpan span("swarming.sim");
    return inner_.homogeneous_utility(protocol, population, seed);
  }
  [[nodiscard]] std::pair<double, double> mixed_utilities(
      std::uint32_t a, std::uint32_t b, std::size_t count_a,
      std::size_t count_b, std::uint64_t seed) const override {
    ScopedSpan span("swarming.sim");
    return inner_.mixed_utilities(a, b, count_a, count_b, seed);
  }

 private:
  const EncounterModel& inner_;
};

/// Everything one setup builds; the last one serves the timed loop.
struct Instance {
  std::vector<std::uint32_t> order;  // ops walk this protocol order
  std::unique_ptr<dsa::swarming::SwarmingModel> model;
  std::unique_ptr<TimedModel> timed;
  std::unique_ptr<dsa::util::ThreadPool> pool;
  std::unique_ptr<PraEngine> engine;
};

dsa::swarming::SwarmingModel make_model() {
  dsa::swarming::SimulationConfig sim;
  sim.rounds = kRounds;
  return {sim, dsa::swarming::BandwidthDistribution::piatek()};
}

/// One protocol from every stratum of kStratum consecutive ids, in a
/// seed-shuffled order, so every seed covers the whole space evenly.
std::vector<std::uint32_t> stratified_order(std::uint64_t seed) {
  InputRng rng(seed);
  std::vector<std::uint32_t> order;
  for (std::uint32_t base = 0; base < dsa::swarming::kProtocolCount;
       base += kStratum) {
    const std::uint32_t width =
        std::min(kStratum, dsa::swarming::kProtocolCount - base);
    order.push_back(base + static_cast<std::uint32_t>(rng.below(width)));
  }
  rng.shuffle(order);
  return order;
}

struct Done {
  std::size_t op;
  std::uint32_t protocol;
  ProtocolMetrics metrics;
};

}  // namespace

Outcome run_pra_sweep(const Options& options, RefKernel& ref) {
  Outcome outcome;
  const PraConfig config = pra_config();
  const std::uint32_t warm_up = dsa::scenario::parse_protocol_token("bt");

  Instance inst;
  std::vector<double> build_ms;
  const std::vector<double> setup_s = time_setups(
      [&] { inst = Instance{}; },
      [&] {
        inst.order = stratified_order(options.seed);
        inst.model = std::make_unique<dsa::swarming::SwarmingModel>(
            make_model());
        inst.timed = std::make_unique<TimedModel>(*inst.model);
        inst.pool = std::make_unique<dsa::util::ThreadPool>(kWorkers);
        const EncounterModel& model =
            options.trace ? static_cast<const EncounterModel&>(*inst.timed)
                          : *inst.model;
        const std::int64_t build_start = now_ns();
        inst.engine =
            std::make_unique<PraEngine>(model, config, inst.pool.get());
        build_ms.push_back(ms_between(build_start, now_ns()));
        (void)inst.engine->quantify(warm_up, warm_up + 1);
      });

  // Peers cannot receive more than is uploaded, so a protocol's raw
  // performance is at most the mean of the stratified capacity draw.
  const std::vector<double> caps =
      dsa::swarming::BandwidthDistribution::piatek().stratified_sample(
          config.population);
  const double capacity_mean = dsa::stats::mean(caps);
  const double games =
      static_cast<double>(config.opponent_sample * config.encounter_runs);

  std::vector<Done> done;
  const auto on_grid = [games](double rate) {
    return rate >= 0.0 && rate <= 1.0 &&
           std::round(rate * games) / games == rate;
  };
  LoopResult loop = run_loop(
      options,
      [&](std::size_t index) {
        const std::uint32_t p = inst.order[index % inst.order.size()];
        std::vector<ProtocolMetrics> metrics;
        {
          ScopedSpan span("core.quantify");
          metrics = inst.engine->quantify(p, p + 1);
        }
        ProtocolMetrics m = metrics.at(0);
        if (options.corrupt == "pra.grid") m.robustness += 1e-3;
        if (options.corrupt == "pra.capacity") m.raw_performance += 400.0;
        done.push_back({index, p, m});
        bool ok = true;
        if (!on_grid(m.robustness) || !on_grid(m.aggressiveness)) {
          fail_check(outcome, "protocol " + std::to_string(p) +
                                  ": win rate off the 1/games grid");
          ok = false;
        }
        if (!(m.raw_performance >= 0.0 &&
              m.raw_performance <= capacity_mean)) {
          fail_check(outcome, "protocol " + std::to_string(p) +
                                  ": raw performance outside [0, mean "
                                  "capacity]");
          ok = false;
        }
        return ok;
      },
      ref);

  // quantify must equal the serial per-protocol methods exactly; recompute
  // a seed-chosen sample on a separate 1-thread engine.
  {
    const dsa::swarming::SwarmingModel model = make_model();
    PraConfig serial_config = config;
    serial_config.threads = 1;
    const PraEngine serial(model, serial_config);
    InputRng rng(options.seed ^ 0x5e7a1ULL);
    for (std::size_t i = 0; i < kSerialChecks && !done.empty(); ++i) {
      Done d = done[rng.below(done.size())];
      if (options.corrupt == "pra.serial") d.metrics.raw_performance += 1e-9;
      if (d.metrics.raw_performance != serial.raw_performance_of(d.protocol) ||
          d.metrics.robustness != serial.win_rate_of(d.protocol, 0.5) ||
          d.metrics.aggressiveness !=
              serial.win_rate_of(d.protocol, config.minority_fraction)) {
        fail_check(outcome, "protocol " + std::to_string(d.protocol) +
                                ": quantify differs from the serial engine");
        loop.ok[d.op] = false;
      }
    }
  }
  count_ops(loop, outcome);

  outcome.setup_samples_s = setup_s;
  outcome.end_to_end = end_to_end_metrics(setup_s, loop);
  add_common_layers(loop, outcome.per_layer);
  if (!options.trace) return outcome;

  // Probes on the same pool and inputs, after the loop.
  std::vector<Metric>& layers = outcome.per_layer;
  constexpr int kProbes = 2000;
  const std::size_t items =
      config.performance_runs +
      2 * config.opponent_sample * config.encounter_runs;
  std::int64_t start = now_ns();
  for (int i = 0; i < kProbes; ++i) {
    inst.pool->parallel_for(items, [](std::size_t) {}, 1);
  }
  const double parallel_for_us =
      ms_between(start, now_ns()) * 1e3 / (kProbes * static_cast<double>(items));
  const dsa::swarming::BandwidthDistribution dist =
      dsa::swarming::BandwidthDistribution::piatek();
  start = now_ns();
  for (int i = 0; i < kProbes; ++i) {
    (void)dsa::swarming::shuffled_capacities(config.population, dist,
                                             static_cast<std::uint64_t>(i));
  }
  const double shuffle_us = ms_between(start, now_ns()) * 1e3 / kProbes;

  const SpanLog::Totals sims = SpanLog::global().totals("swarming.sim");
  const SpanLog::Totals quantify = SpanLog::global().totals("core.quantify");
  const double traced_ops = static_cast<double>(loop.traced.ops);
  const double sim_ms =
      sims.count > 0 ? sims.total_ms / static_cast<double>(sims.count) : 0.0;
  const double wall_ms = static_cast<double>(loop.traced.wall_ns) / 1e6;
  const double covered =
      sims.total_ms / kWorkers +
      static_cast<double>(sims.count) * parallel_for_us / 1e3;
  layers.push_back({"swarming.sim_ms", sim_ms, "ms"});
  layers.push_back(
      {"swarming.round_us", sim_ms * 1e3 / static_cast<double>(kRounds), "us"});
  layers.push_back(
      {"swarming.sims", static_cast<double>(sims.count) / traced_ops, "count"});
  layers.push_back({"swarming.shuffle_us", shuffle_us, "us"});
  layers.push_back({"core.quantify_ms", median(quantify.ms), "ms"});
  layers.push_back({"core.engine_build_ms", median(build_ms), "ms"});
  layers.push_back({"util.pool_busy_frac",
                    sims.total_ms / (quantify.total_ms * kWorkers), "frac"});
  layers.push_back({"util.parallel_for_us", parallel_for_us, "us"});
  layers.push_back({"residual_frac", 1.0 - covered / wall_ms, "frac"});
  return outcome;
}

}  // namespace perfbench

#include "scenario/exec.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "core/ess.hpp"
#include "core/evolution.hpp"
#include "core/pra.hpp"
#include "core/search.hpp"
#include "explore/explore.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "scenario/explore_kind.hpp"
#include "stats/descriptive.hpp"
#include "swarm/swarm_sim.hpp"
#include "swarming/dsa_model.hpp"
#include "util/fingerprint.hpp"

namespace dsa::scenario {

namespace {

double parse_exact_double(const std::string& text) {
  return std::strtod(text.c_str(), nullptr);
}

// ---------------------------------------------------------------------------
// Job execution, one function per kind. Each returns its manifest rows
// (job_columns order).
// ---------------------------------------------------------------------------

swarm::ClientVariant client_from_name(const std::string& name) {
  using swarm::ClientVariant;
  if (name == "bt") return ClientVariant::kBitTorrent;
  if (name == "birds") return ClientVariant::kBirds;
  if (name == "loyal") return ClientVariant::kLoyalWhenNeeded;
  if (name == "sorts") return ClientVariant::kSortSlowest;
  if (name == "random") return ClientVariant::kRandomRank;
  throw std::logic_error("unvalidated client name: " + name);
}

swarming::SwarmingModel model_from_params(const ParamSet& params,
                                          double churn = 0.0) {
  swarming::SimulationConfig sim;
  sim.rounds = static_cast<std::size_t>(params.get_int("rounds"));
  sim.churn_rate = churn;
  return swarming::SwarmingModel(sim,
                                 swarming::BandwidthDistribution::piatek());
}

JobRows execute_sweep(const Job& job) {
  const ParamSet& p = job.params;
  const swarming::SwarmingModel model =
      model_from_params(p, p.get_double("churn"));
  core::PraConfig pra;
  pra.population = static_cast<std::size_t>(p.get_int("population"));
  pra.performance_runs =
      static_cast<std::size_t>(p.get_int("performance_runs"));
  pra.encounter_runs = static_cast<std::size_t>(p.get_int("encounter_runs"));
  pra.opponent_sample = static_cast<std::size_t>(p.get_int("opponent_sample"));
  pra.minority_fraction = p.get_double("minority_fraction");
  pra.seed = static_cast<std::uint64_t>(p.get_int("seed"));
  // Jobs already run concurrently on the runner's pool; a nested pool here
  // would deadlock it. threads=1 runs the engine's grid inline on this
  // worker without starting a thread — and per-item seeding keeps the
  // numbers identical to any other scheduling. The engine draws opponent
  // samples only for the protocols this job quantifies.
  pra.threads = 1;
  const core::PraEngine pra_engine(model, pra);

  JobRows rows;
  rows.reserve(job.protocols.size());
  for (const std::uint32_t id : job.protocols) {
    const std::vector<core::ProtocolMetrics> metrics =
        pra_engine.quantify(id, id + 1);
    rows.push_back({std::to_string(id),
                    util::exact_number(metrics.front().raw_performance),
                    util::exact_number(metrics.front().robustness),
                    util::exact_number(metrics.front().aggressiveness)});
  }
  return rows;
}

JobRows execute_swarm(const Job& job) {
  const ParamSet& p = job.params;
  const std::string a_name = p.get_string("a");
  std::string b_name = p.get_string("b");
  if (b_name == "same") b_name = a_name;
  const swarm::ClientVariant a = client_from_name(a_name);
  const swarm::ClientVariant b = client_from_name(b_name);
  const auto total = static_cast<std::size_t>(p.get_int("total"));
  const double fraction = p.get_double("fraction");
  const auto runs = static_cast<std::size_t>(p.get_int("runs"));
  const auto seed = static_cast<std::uint64_t>(p.get_int("seed"));
  const double intensity = p.get_double("intensity");
  const double loss = p.get_double("loss");
  const auto horizon = static_cast<std::size_t>(p.get_int("horizon"));
  const bool faulty = intensity > 0.0 || loss >= 0.0;

  const auto count_a = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(fraction *
                                           static_cast<double>(total))),
      1, total - 1);

  std::vector<double> times_a, times_b, times_all;
  swarm::FaultStats totals;
  std::size_t incomplete_runs = 0;
  for (std::size_t run = 0; run < runs; ++run) {
    swarm::SwarmConfig config;
    config.piece_count = static_cast<std::size_t>(p.get_int("piece_count"));
    config.piece_size_kb = p.get_double("piece_size_kb");
    config.seeder_capacity_kbps = p.get_double("seeder_capacity");
    config.arrival_interval =
        static_cast<std::size_t>(p.get_int("arrival_interval"));
    config.seed = seed + run;
    if (faulty) {
      fault::FaultSpec spec;
      spec.intensity = intensity;
      spec.crash_fraction = p.get_double("crash_fraction");
      spec.outage_fraction = p.get_double("outage_fraction");
      spec.seed = seed + run;
      config.faults = fault::make_fault_plan(spec, total, horizon);
      if (loss >= 0.0) config.faults.message_loss = loss;
    }
    const swarm::SwarmResult result =
        swarm::run_mixed_swarm(a, b, count_a, total, config);
    const double cap = static_cast<double>(config.max_ticks);
    times_a.push_back(result.group_mean_time(0, count_a, cap));
    times_b.push_back(result.group_mean_time(count_a, total, cap));
    times_all.push_back(result.group_mean_time(0, total, cap));
    if (!result.all_completed) ++incomplete_runs;
    totals.messages_lost += result.fault_stats.messages_lost;
    totals.crashes += result.fault_stats.crashes;
  }

  return {{a_name, b_name, std::to_string(total), std::to_string(count_a),
           util::format_number(fraction), util::format_number(intensity),
           std::to_string(seed), std::to_string(runs),
           util::format_number(stats::mean(times_a)),
           util::format_number(stats::ci95_half_width(times_a)),
           util::format_number(stats::mean(times_b)),
           util::format_number(stats::ci95_half_width(times_b)),
           util::format_number(stats::mean(times_all)),
           std::to_string(totals.messages_lost),
           std::to_string(totals.crashes),
           std::to_string(incomplete_runs)}};
}

JobRows execute_evolution(const Job& job) {
  const ParamSet& p = job.params;
  const swarming::SwarmingModel model = model_from_params(p);
  const std::vector<std::uint32_t> menu =
      parse_protocol_menu(p.get_string("menu"));
  core::EvolutionConfig config;
  config.population = static_cast<std::size_t>(p.get_int("population"));
  config.generations = static_cast<std::size_t>(p.get_int("generations"));
  config.runs_per_generation =
      static_cast<std::size_t>(p.get_int("runs_per_generation"));
  config.mutation_rate = p.get_double("mutation");
  config.seed = static_cast<std::uint64_t>(p.get_int("seed"));
  const core::ReplicatorDynamics dynamics(model, menu, config);
  const core::EvolutionResult result = dynamics.run_from_even_split();

  std::string shares;
  for (const double share : result.final_shares()) {
    if (!shares.empty()) shares += ';';
    shares += util::format_number(share);
  }
  // CsvTable has no quoting, so the comma list becomes a ';' list.
  std::string menu_label = p.get_string("menu");
  std::replace(menu_label.begin(), menu_label.end(), ',', ';');
  const int fixated = result.fixated_menu_index;
  return {{menu_label, std::to_string(p.get_int("rounds")),
           std::to_string(config.population),
           std::to_string(config.generations),
           std::to_string(config.runs_per_generation),
           util::format_number(config.mutation_rate),
           std::to_string(config.seed), std::to_string(fixated),
           fixated >= 0
               ? std::to_string(menu[static_cast<std::size_t>(fixated)])
               : "-1",
           shares}};
}

JobRows execute_ess(const Job& job) {
  const ParamSet& p = job.params;
  const swarming::SwarmingModel model = model_from_params(p);
  const std::uint32_t protocol = parse_protocol_token(p.get_string("protocol"));
  core::EssConfig config;
  config.population = static_cast<std::size_t>(p.get_int("population"));
  config.mutant_fraction = p.get_double("mutant_fraction");
  config.runs = static_cast<std::size_t>(p.get_int("runs"));
  config.mutant_sample = static_cast<std::size_t>(p.get_int("mutant_sample"));
  config.seed = static_cast<std::uint64_t>(p.get_int("seed"));
  const core::EssQuantifier quantifier(model, config);
  const core::EssResult result = quantifier.stability_of(protocol);
  return {{p.get_string("protocol"), std::to_string(protocol),
           std::to_string(p.get_int("rounds")),
           std::to_string(config.population),
           util::format_number(config.mutant_fraction),
           std::to_string(config.runs), std::to_string(config.mutant_sample),
           std::to_string(config.seed), util::format_number(result.stability),
           std::to_string(result.invaders.size())}};
}

/// Neighbor for the search kind: re-roll one design dimension (the same
/// move set as examples/heuristic_search.cpp).
std::uint32_t mutate_protocol(std::uint32_t current, util::Rng& rng) {
  using namespace swarming;
  ProtocolSpec spec = decode_protocol(current);
  switch (rng.below(5)) {
    case 0: {
      const auto h = static_cast<std::uint8_t>(rng.below(4));
      spec.stranger_slots = h;
      spec.stranger_policy = h == 0
                                 ? StrangerPolicy::kPeriodic
                                 : static_cast<StrangerPolicy>(rng.below(3));
      break;
    }
    case 1:
      if (spec.partner_slots > 0) {
        spec.window = static_cast<CandidateWindow>(rng.below(2));
      }
      break;
    case 2:
      if (spec.partner_slots > 0) {
        spec.ranking = static_cast<RankingFunction>(rng.below(6));
      }
      break;
    case 3: {
      const auto k = static_cast<std::uint8_t>(rng.below(10));
      spec.partner_slots = k;
      if (k == 0) {
        spec.window = CandidateWindow::kTft;
        spec.ranking = RankingFunction::kFastest;
      }
      break;
    }
    default:
      spec.allocation = static_cast<AllocationPolicy>(rng.below(3));
  }
  return encode_protocol(spec);
}

JobRows execute_search(const Job& job) {
  const ParamSet& p = job.params;
  const swarming::SwarmingModel model = model_from_params(p);
  core::SearchConfig config;
  config.population = static_cast<std::size_t>(p.get_int("population"));
  config.restarts = static_cast<std::size_t>(p.get_int("restarts"));
  config.steps_per_restart =
      static_cast<std::size_t>(p.get_int("steps_per_restart"));
  config.eval_runs = static_cast<std::size_t>(p.get_int("eval_runs"));
  config.opponent_probes =
      static_cast<std::size_t>(p.get_int("opponent_probes"));
  config.performance_weight = p.get_double("performance_weight");
  config.reference_protocol = parse_protocol_token(p.get_string("reference"));
  config.seed = static_cast<std::uint64_t>(p.get_int("seed"));
  core::HeuristicSearch search(model, mutate_protocol, config);
  const core::SearchResult result = search.run();
  return {{std::to_string(p.get_int("rounds")),
           std::to_string(config.population),
           std::to_string(config.restarts),
           std::to_string(config.steps_per_restart),
           std::to_string(config.eval_runs),
           std::to_string(config.opponent_probes),
           util::format_number(config.performance_weight),
           p.get_string("reference"), std::to_string(config.seed),
           std::to_string(result.best_protocol),
           util::format_number(result.best_objective),
           std::to_string(result.evaluations)}};
}

/// Worst-value-so-far across every explore schedule this process simulated.
/// Feeds the `explore.best_value` gauge (live telemetry only — results flow
/// through the manifest rows, never through this). Process-lifetime by
/// design: a resumed search keeps ratcheting from where its own sims left
/// off.
std::atomic<double> g_explore_best{-1.0};

void note_explore_schedule(const explore::Schedule& schedule, double value) {
  if (!obs::enabled()) return;
  auto& registry = obs::Registry::global();
  registry.counter("explore.schedules_simulated").increment();
  registry.gauge("explore.frontier_depth")
      .set(static_cast<double>(schedule.size()));
  double best = g_explore_best.load(std::memory_order_relaxed);
  while (value > best && !g_explore_best.compare_exchange_weak(
                             best, value, std::memory_order_relaxed)) {
  }
  registry.gauge("explore.best_value")
      .set(g_explore_best.load(std::memory_order_relaxed));
}

/// One row per canonical schedule in the job's [begin, end) ordinal range.
/// The walk order is fixed by the domain alone, so the rows — and therefore
/// the merged CSV — are identical for any chunking, thread count, or resume
/// point.
JobRows execute_explore(const Job& job) {
  const ExploreContext ctx = explore_context(job.params);
  const std::uint64_t begin = job.protocols.at(0);
  const std::uint64_t end = job.protocols.at(1);
  const double cap = static_cast<double>(ctx.config.max_ticks);

  JobRows rows;
  explore::for_schedules_in(
      ctx.domain, begin, end,
      [&](std::uint64_t ordinal, const explore::Schedule& schedule) {
        const swarm::SwarmResult result = run_explore_schedule(ctx, schedule);
        const double value = explore_value(ctx, result);
        note_explore_schedule(schedule, value);
        std::size_t incomplete = 0;
        for (const double t : result.completion_time) {
          if (t < 0.0) ++incomplete;
        }
        rows.push_back(
            {std::to_string(ordinal), explore::describe(ctx.domain, schedule),
             std::to_string(schedule.size()),
             explore::to_string(ctx.objective), util::exact_number(value),
             util::exact_number(explore::objective_value(
                 explore::Objective::kMeanTime, result, cap)),
             util::exact_number(explore::objective_value(
                 explore::Objective::kMaxTime, result, cap)),
             std::to_string(result.fault_stats.stall_ticks),
             std::to_string(incomplete)});
      });
  return rows;
}

}  // namespace

JobRows execute_job(const ScenarioSpec& spec, const Job& job) {
  DSA_OBS_PHASE("scenario/job");
  switch (spec.kind) {
    case Kind::kSweep: return execute_sweep(job);
    case Kind::kSwarm: return execute_swarm(job);
    case Kind::kEvolution: return execute_evolution(job);
    case Kind::kEss: return execute_ess(job);
    case Kind::kSearch: return execute_search(job);
    case Kind::kExplore: return execute_explore(job);
  }
  throw std::logic_error("unknown scenario kind");
}

util::CsvTable merge_rows(const Plan& plan,
                          const std::vector<JobRows>& results) {
  util::CsvTable table(plan.merged_columns);
  if (plan.spec.kind == Kind::kSweep) {
    // Reproduce compute_pra_dataset + save_pra_dataset exactly: collect the
    // exact raw metrics, normalize performance against the global best, and
    // format with the dataset's display precision. exact_number strings
    // round-trip, so raw/best here is bit-for-bit the uninterrupted sweep's
    // quotient.
    struct Rec {
      std::uint32_t protocol;
      double raw, robustness, aggressiveness;
    };
    std::vector<Rec> records;
    for (const JobRows& rows : results) {
      for (const std::vector<std::string>& row : rows) {
        records.push_back({static_cast<std::uint32_t>(
                               std::strtoul(row[0].c_str(), nullptr, 10)),
                           parse_exact_double(row[1]),
                           parse_exact_double(row[2]),
                           parse_exact_double(row[3])});
      }
    }
    double best = 0.0;
    for (const Rec& rec : records) best = std::max(best, rec.raw);
    for (const Rec& rec : records) {
      const swarming::ProtocolSpec spec =
          swarming::decode_protocol(rec.protocol);
      table.add_row({
          std::to_string(rec.protocol),
          swarming::to_string(spec.stranger_policy),
          std::to_string(spec.stranger_slots),
          swarming::to_string(spec.window),
          swarming::to_string(spec.ranking),
          std::to_string(spec.partner_slots),
          swarming::to_string(spec.allocation),
          util::format_number(rec.raw),
          util::format_number(best > 0.0 ? rec.raw / best : 0.0),
          util::format_number(rec.robustness),
          util::format_number(rec.aggressiveness),
      });
    }
  } else {
    for (const JobRows& rows : results) {
      for (const std::vector<std::string>& row : rows) {
        table.add_row(row);
      }
    }
  }
  return table;
}

}  // namespace dsa::scenario

#include "scenario/explore_kind.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "explore/counterexample.hpp"

namespace dsa::scenario {

ExploreContext explore_context(const ParamSet& params) {
  ExploreContext ctx;
  ctx.a_name = params.get_string("a");
  ctx.b_name = params.get_string("b");
  if (ctx.b_name == "same") ctx.b_name = ctx.a_name;
  ctx.a = explore::client_from_name(ctx.a_name);
  ctx.b = explore::client_from_name(ctx.b_name);
  ctx.total = static_cast<std::size_t>(params.get_int("total"));
  const double fraction = params.get_double("fraction");
  ctx.count_a = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::lround(fraction * static_cast<double>(ctx.total))),
      1, ctx.total - 1);

  ctx.config.piece_count =
      static_cast<std::size_t>(params.get_int("piece_count"));
  ctx.config.piece_size_kb = params.get_double("piece_size_kb");
  ctx.config.seeder_capacity_kbps = params.get_double("seeder_capacity");
  ctx.config.max_ticks = static_cast<std::size_t>(params.get_int("max_ticks"));
  ctx.config.seed = static_cast<std::uint64_t>(params.get_int("seed"));

  ctx.objective = explore::parse_objective(params.get_string("objective"));
  ctx.loss = params.get_double("loss");

  const auto crash_leechers =
      static_cast<std::size_t>(params.get_int("crash_leechers"));
  if (crash_leechers > ctx.total) {
    throw std::invalid_argument(
        "explore.crash_leechers: " + std::to_string(crash_leechers) +
        " exceeds total leechers (" + std::to_string(ctx.total) + ")");
  }
  const auto crash_downtime =
      static_cast<std::size_t>(params.get_int("crash_downtime"));
  for (std::size_t l = 0; l < crash_leechers; ++l) {
    ctx.domain.templates.push_back(
        {explore::FaultTemplate::Kind::kCrash, l, crash_downtime});
  }
  const auto outage_count =
      static_cast<std::size_t>(params.get_int("outage_count"));
  const auto outage_length =
      static_cast<std::size_t>(params.get_int("outage_length"));
  for (std::size_t i = 0; i < outage_count; ++i) {
    ctx.domain.templates.push_back(
        {explore::FaultTemplate::Kind::kOutage, 0, outage_length});
  }

  const auto tick_start =
      static_cast<std::size_t>(params.get_int("tick_start"));
  const auto tick_step = static_cast<std::size_t>(params.get_int("tick_step"));
  const auto tick_count =
      static_cast<std::size_t>(params.get_int("tick_count"));
  for (std::size_t i = 0; i < tick_count; ++i) {
    ctx.domain.ticks.push_back(tick_start + i * tick_step);
  }
  ctx.domain.max_faults =
      static_cast<std::size_t>(params.get_int("max_faults"));
  ctx.domain.validate(ctx.total, ctx.config.max_ticks);
  return ctx;
}

swarm::SwarmResult run_explore_schedule(const ExploreContext& ctx,
                                        const explore::Schedule& schedule) {
  swarm::SwarmConfig config = ctx.config;
  config.faults = explore::materialize(ctx.domain, schedule, ctx.loss);
  return swarm::run_mixed_swarm(ctx.a, ctx.b, ctx.count_a, ctx.total, config);
}

double explore_value(const ExploreContext& ctx,
                     const swarm::SwarmResult& result) {
  return explore::objective_value(
      ctx.objective, result, static_cast<double>(ctx.config.max_ticks));
}

}  // namespace dsa::scenario

#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace dsa::fault {

bool FaultPlan::empty() const noexcept {
  return message_loss == 0.0 && seeder_outages.empty() && crashes.empty();
}

bool FaultPlan::seeder_down(std::size_t tick) const noexcept {
  for (const SeederOutage& outage : seeder_outages) {
    if (tick >= outage.begin_tick && tick < outage.end_tick) return true;
  }
  return false;
}

void FaultPlan::validate(std::size_t leecher_count,
                         std::size_t max_ticks) const {
  if (!(message_loss >= 0.0 && message_loss <= 1.0)) {
    throw std::invalid_argument(
        "FaultPlan.message_loss: must be in [0, 1], got " +
        std::to_string(message_loss));
  }
  for (const SeederOutage& outage : seeder_outages) {
    if (outage.end_tick <= outage.begin_tick) {
      throw std::invalid_argument(
          "FaultPlan.seeder_outages: window [" +
          std::to_string(outage.begin_tick) + ", " +
          std::to_string(outage.end_tick) + ") is empty or inverted");
    }
  }
  // Overlapping windows would make seeder_down() ambiguous about which
  // outage is "active" (and double-count down ticks elsewhere), so they are
  // rejected rather than silently merged.
  std::vector<SeederOutage> sorted = seeder_outages;
  std::sort(sorted.begin(), sorted.end(),
            [](const SeederOutage& a, const SeederOutage& b) {
              return a.begin_tick < b.begin_tick;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].begin_tick < sorted[i - 1].end_tick) {
      throw std::invalid_argument(
          "FaultPlan.seeder_outages: windows [" +
          std::to_string(sorted[i - 1].begin_tick) + ", " +
          std::to_string(sorted[i - 1].end_tick) + ") and [" +
          std::to_string(sorted[i].begin_tick) + ", " +
          std::to_string(sorted[i].end_tick) + ") overlap");
    }
  }
  for (const CrashEvent& crash : crashes) {
    if (crash.leecher >= leecher_count) {
      throw std::invalid_argument(
          "FaultPlan.crashes: leecher index " + std::to_string(crash.leecher) +
          " outside [0, " + std::to_string(leecher_count) + ")");
    }
    if (crash.downtime == 0) {
      throw std::invalid_argument(
          "FaultPlan.crashes: downtime must be > 0 (leecher " +
          std::to_string(crash.leecher) + ")");
    }
    if (max_ticks > 0 && crash.tick >= max_ticks) {
      throw std::invalid_argument(
          "FaultPlan.crashes: tick " + std::to_string(crash.tick) +
          " at or past the run horizon (max_ticks = " +
          std::to_string(max_ticks) + ")");
    }
  }
}

FaultPlan make_fault_plan(const FaultSpec& spec, std::size_t leecher_count,
                          std::size_t horizon_ticks) {
  if (!(spec.intensity >= 0.0 && spec.intensity <= 1.0)) {
    throw std::invalid_argument("FaultSpec.intensity: must be in [0, 1]");
  }
  if (!(spec.max_message_loss >= 0.0 && spec.max_message_loss <= 1.0)) {
    throw std::invalid_argument(
        "FaultSpec.max_message_loss: must be in [0, 1]");
  }
  if (!(spec.crash_fraction >= 0.0 && spec.crash_fraction <= 1.0)) {
    throw std::invalid_argument("FaultSpec.crash_fraction: must be in [0, 1]");
  }
  if (!(spec.outage_fraction >= 0.0 && spec.outage_fraction <= 1.0)) {
    throw std::invalid_argument(
        "FaultSpec.outage_fraction: must be in [0, 1]");
  }
  if (horizon_ticks == 0) {
    throw std::invalid_argument("make_fault_plan: horizon_ticks must be > 0");
  }

  FaultPlan plan;
  if (spec.intensity == 0.0) return plan;  // bitwise-identical baseline

  util::Rng rng(util::hash64(spec.seed ^ 0x0fa17a6b5c3d2e19ULL));
  // At intensity exactly 1.0 the product can land a rounding hair above
  // max_message_loss; clamp so the plan always validates.
  plan.message_loss =
      std::clamp(spec.intensity * spec.max_message_loss, 0.0, 1.0);

  // Crashes: a scaled fraction of distinct leechers, each crashing once in
  // the first half of the horizon and staying dark for 2-10% of it.
  const auto crash_count = static_cast<std::size_t>(
      std::lround(spec.intensity * spec.crash_fraction *
                  static_cast<double>(leecher_count)));
  if (crash_count > 0) {
    std::vector<std::size_t> victims(leecher_count);
    for (std::size_t i = 0; i < leecher_count; ++i) victims[i] = i;
    for (std::size_t i = 0; i < crash_count; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.below(victims.size() - i));
      std::swap(victims[i], victims[j]);
    }
    const std::size_t crash_window = std::max<std::size_t>(1, horizon_ticks / 2);
    const std::size_t min_down = std::max<std::size_t>(1, horizon_ticks / 50);
    const std::size_t max_down = std::max(min_down, horizon_ticks / 10);
    for (std::size_t i = 0; i < crash_count; ++i) {
      CrashEvent crash;
      crash.leecher = victims[i];
      crash.tick = 1 + static_cast<std::size_t>(rng.below(crash_window));
      // min_down >= 1 above keeps the draw positive: a downtime of 0 would
      // resurrect the leecher in the same tick it died.
      crash.downtime = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 rng.between(static_cast<std::int64_t>(min_down),
                             static_cast<std::int64_t>(max_down))));
      plan.crashes.push_back(crash);
    }
  }

  // Seeder outage: one window covering a scaled fraction of the horizon,
  // starting somewhere in its first half.
  const auto outage_len = static_cast<std::size_t>(std::lround(
      spec.intensity * spec.outage_fraction *
      static_cast<double>(horizon_ticks)));
  if (outage_len > 0) {
    SeederOutage outage;
    outage.begin_tick =
        1 + static_cast<std::size_t>(rng.below(horizon_ticks / 2 + 1));
    outage.end_tick = outage.begin_tick + outage_len;
    plan.seeder_outages.push_back(outage);
  }

  plan.validate(leecher_count);
  return plan;
}

}  // namespace dsa::fault

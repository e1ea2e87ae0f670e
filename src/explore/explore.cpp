#include "explore/explore.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"

namespace dsa::explore {

namespace {

constexpr std::uint64_t kOverflow = std::numeric_limits<std::uint64_t>::max();

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > kOverflow / b) return kOverflow;
  return a * b;
}

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return a > kOverflow - b ? kOverflow : a + b;
}

/// Binomial/power tables for the walker's skip arithmetic, saturating at
/// kOverflow (the domain bound rejects any space that large anyway).
struct Tables {
  // binom[n][k] for n in [0, m], k in [0, kmax].
  std::vector<std::vector<std::uint64_t>> binom;
  // gpow[d] = g^d for d in [0, kmax].
  std::vector<std::uint64_t> gpow;

  Tables(std::size_t m, std::size_t g, std::size_t kmax) {
    binom.assign(m + 1, std::vector<std::uint64_t>(kmax + 1, 0));
    for (std::size_t n = 0; n <= m; ++n) {
      binom[n][0] = 1;
      for (std::size_t k = 1; k <= kmax && k <= n; ++k) {
        binom[n][k] = k == n ? 1
                             : saturating_add(binom[n - 1][k - 1],
                                              binom[n - 1][k]);
      }
    }
    gpow.assign(kmax + 1, 1);
    for (std::size_t d = 1; d <= kmax; ++d) {
      gpow[d] = saturating_mul(gpow[d - 1], g);
    }
  }
};

bool windows_overlap(std::size_t a_begin, std::size_t a_len,
                     std::size_t b_begin, std::size_t b_len) {
  return a_begin < b_begin + b_len && b_begin < a_begin + a_len;
}

/// Two instantiated templates commute when they strike different peers and
/// their windows stay disjoint under both tick assignments (the chosen one
/// and the swapped one). Overlapping windows always interact through shared
/// swarm dynamics, so they are never treated as independent.
bool independent(const FaultTemplate& a, std::size_t tick_a,
                 const FaultTemplate& b, std::size_t tick_b) {
  if (footprint_peer(a) == footprint_peer(b)) return false;
  if (windows_overlap(tick_a, a.duration, tick_b, b.duration)) return false;
  if (windows_overlap(tick_b, a.duration, tick_a, b.duration)) return false;
  return true;
}

/// Ordinal-ordered walk of [begin, end) with subtree skipping: whole
/// template/tick blocks strictly before `begin` advance the ordinal without
/// being expanded, and non-canonical blocks are charged to `pruned` without
/// being expanded either.
class Walker {
 public:
  Walker(const Domain& domain, std::uint64_t begin, std::uint64_t end,
         const ScheduleFn& fn)
      : domain_(domain),
        begin_(begin),
        end_(end),
        fn_(fn),
        m_(domain.templates.size()),
        depth_cap_(std::min(domain.max_faults, domain.templates.size())),
        tables_(domain.templates.size(), domain.ticks.size(), depth_cap_) {}

  SpaceCount run() {
    // Depth 0: the fault-free baseline, always canonical, ordinal 0.
    take_block(1, /*canonical=*/true, /*leaf=*/true);
    for (std::size_t depth = 1; depth <= depth_cap_ && ordinal_ < end_;
         ++depth) {
      depth_ = depth;
      choose_slot(0, 0);
    }
    counts_.total = end_ - begin_;
    return counts_;
  }

 private:
  std::uint64_t range_overlap(std::uint64_t len) const {
    const std::uint64_t lo = std::max(ordinal_, begin_);
    const std::uint64_t hi = std::min(saturating_add(ordinal_, len), end_);
    return hi > lo ? hi - lo : 0;
  }

  /// Accounts for a block of `len` consecutive ordinals. A canonical leaf
  /// block (len == 1) invokes the callback when in range; a non-canonical
  /// block is charged to pruned for its in-range part.
  void take_block(std::uint64_t len, bool canonical, bool leaf) {
    if (canonical && leaf) {
      if (ordinal_ >= begin_ && ordinal_ < end_) {
        if (fn_) fn_(ordinal_, schedule_);
        ++counts_.visited;
      }
    } else if (!canonical) {
      counts_.pruned += range_overlap(len);
    }
    ordinal_ = saturating_add(ordinal_, len);
  }

  /// True when giving slot `slot` the assignment (tmpl, tick) breaks the
  /// canonical order against an earlier slot: an independent pair must keep
  /// the earlier template on the earlier-or-equal tick.
  bool violates(std::size_t slot, std::size_t tmpl, std::size_t tick) const {
    for (std::size_t j = 0; j < slot; ++j) {
      const Assignment& prev = schedule_[j];
      const std::size_t prev_tick = domain_.ticks[prev.tick_index];
      if (prev_tick <= tick) continue;
      if (independent(domain_.templates[prev.tmpl], prev_tick,
                      domain_.templates[tmpl], tick)) {
        return true;
      }
    }
    return false;
  }

  void choose_slot(std::size_t slot, std::size_t first) {
    const std::size_t remaining = depth_ - slot;
    for (std::size_t t = first; t + remaining <= m_; ++t) {
      if (ordinal_ >= end_) return;
      // All completions of (template t at this slot): remaining - 1 more
      // templates from (t, m), every slot from here with any tick.
      const std::uint64_t tmpl_block = saturating_mul(
          tables_.binom[m_ - t - 1][remaining - 1], tables_.gpow[remaining]);
      if (saturating_add(ordinal_, tmpl_block) <= begin_) {
        ordinal_ += tmpl_block;
        continue;
      }
      const std::uint64_t tick_block = saturating_mul(
          tables_.binom[m_ - t - 1][remaining - 1],
          tables_.gpow[remaining - 1]);
      for (std::size_t ti = 0; ti < domain_.ticks.size(); ++ti) {
        if (ordinal_ >= end_) return;
        if (saturating_add(ordinal_, tick_block) <= begin_) {
          ordinal_ += tick_block;
          continue;
        }
        if (violates(slot, t, domain_.ticks[ti])) {
          take_block(tick_block, /*canonical=*/false, /*leaf=*/false);
          continue;
        }
        schedule_.push_back({t, ti});
        if (slot + 1 == depth_) {
          take_block(1, /*canonical=*/true, /*leaf=*/true);
        } else {
          choose_slot(slot + 1, t + 1);
        }
        schedule_.pop_back();
      }
    }
  }

  const Domain& domain_;
  std::uint64_t begin_;
  std::uint64_t end_;
  const ScheduleFn& fn_;
  std::size_t m_;
  std::size_t depth_cap_;
  Tables tables_;
  std::size_t depth_ = 0;
  std::uint64_t ordinal_ = 0;
  Schedule schedule_;
  SpaceCount counts_;
};

}  // namespace

std::size_t footprint_peer(const FaultTemplate& tmpl) noexcept {
  return tmpl.kind == FaultTemplate::Kind::kOutage ? 0 : tmpl.leecher + 1;
}

void Domain::validate(std::size_t leecher_count, std::size_t max_ticks) const {
  if (templates.empty()) {
    throw std::invalid_argument("Domain.templates: must not be empty");
  }
  for (std::size_t i = 0; i < templates.size(); ++i) {
    const FaultTemplate& tmpl = templates[i];
    if (tmpl.duration == 0) {
      throw std::invalid_argument("Domain.templates[" + std::to_string(i) +
                                  "].duration: must be > 0");
    }
    if (tmpl.kind == FaultTemplate::Kind::kCrash &&
        tmpl.leecher >= leecher_count) {
      throw std::invalid_argument(
          "Domain.templates[" + std::to_string(i) + "].leecher: index " +
          std::to_string(tmpl.leecher) + " outside [0, " +
          std::to_string(leecher_count) + ")");
    }
  }
  if (ticks.empty()) {
    throw std::invalid_argument("Domain.ticks: must not be empty");
  }
  for (std::size_t i = 1; i < ticks.size(); ++i) {
    if (ticks[i] <= ticks[i - 1]) {
      throw std::invalid_argument(
          "Domain.ticks: must be strictly ascending (ticks[" +
          std::to_string(i) + "] = " + std::to_string(ticks[i]) + ")");
    }
  }
  if (max_ticks > 0 && ticks.back() >= max_ticks) {
    throw std::invalid_argument(
        "Domain.ticks: start tick " + std::to_string(ticks.back()) +
        " at or past the run horizon (max_ticks = " +
        std::to_string(max_ticks) + ")");
  }
  const std::uint64_t total = count_space(*this);
  if (total > kMaxSpace) {
    throw std::invalid_argument(
        "Domain: schedule space has " +
        (total == kOverflow ? std::string(">= 2^64")
                            : std::to_string(total)) +
        " schedules, above the bound of " + std::to_string(kMaxSpace));
  }
}

std::uint64_t count_space(const Domain& domain) {
  const std::size_t m = domain.templates.size();
  const std::size_t kmax = std::min(domain.max_faults, m);
  const Tables tables(m, domain.ticks.size(), kmax);
  std::uint64_t total = 0;
  for (std::size_t d = 0; d <= kmax; ++d) {
    total = saturating_add(
        total, saturating_mul(tables.binom[m][d], tables.gpow[d]));
  }
  return total;
}

SpaceCount for_schedules_in(const Domain& domain, std::uint64_t begin,
                            std::uint64_t end, const ScheduleFn& fn) {
  DSA_OBS_PHASE("explore/enumerate");
  const std::uint64_t total = count_space(domain);
  begin = std::min(begin, total);
  end = std::min(end, total);
  if (begin >= end) return SpaceCount{0, 0, 0};
  Walker walker(domain, begin, end, fn);
  const SpaceCount counts = walker.run();
  if (obs::enabled()) {
    auto& registry = obs::Registry::global();
    registry.counter("explore.schedules_visited").add(counts.visited);
    registry.counter("explore.schedules_pruned").add(counts.pruned);
  }
  return counts;
}

SpaceCount for_each_schedule(const Domain& domain, const ScheduleFn& fn) {
  return for_schedules_in(domain, 0, count_space(domain), fn);
}

std::string describe(const Domain& domain, const Schedule& schedule) {
  if (schedule.empty()) return "none";
  std::ostringstream out;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Assignment& assignment = schedule[i];
    const FaultTemplate& tmpl = domain.templates[assignment.tmpl];
    if (i > 0) out << ';';
    if (tmpl.kind == FaultTemplate::Kind::kCrash) {
      out << "crash:l" << tmpl.leecher;
    } else {
      out << "outage";
    }
    out << '@' << domain.ticks[assignment.tick_index] << 'x' << tmpl.duration;
  }
  return std::move(out).str();
}

fault::FaultPlan materialize(const Domain& domain, const Schedule& schedule,
                             double message_loss) {
  fault::FaultPlan plan;
  plan.message_loss = message_loss;
  std::vector<fault::SeederOutage> windows;
  for (const Assignment& assignment : schedule) {
    const FaultTemplate& tmpl = domain.templates[assignment.tmpl];
    const std::size_t tick = domain.ticks[assignment.tick_index];
    if (tmpl.kind == FaultTemplate::Kind::kCrash) {
      plan.crashes.push_back({tmpl.leecher, tick, tmpl.duration});
    } else {
      windows.push_back({tick, tick + tmpl.duration});
    }
  }
  // Overlapping outage windows union into one: seeder_down() is a union
  // predicate anyway, and FaultPlan::validate rejects literal overlaps.
  std::sort(windows.begin(), windows.end(),
            [](const fault::SeederOutage& a, const fault::SeederOutage& b) {
              return a.begin_tick < b.begin_tick;
            });
  for (const fault::SeederOutage& window : windows) {
    if (!plan.seeder_outages.empty() &&
        window.begin_tick < plan.seeder_outages.back().end_tick) {
      plan.seeder_outages.back().end_tick =
          std::max(plan.seeder_outages.back().end_tick, window.end_tick);
    } else {
      plan.seeder_outages.push_back(window);
    }
  }
  return plan;
}

const char* to_string(Objective objective) noexcept {
  switch (objective) {
    case Objective::kMeanTime:
      return "mean_time";
    case Objective::kMaxTime:
      return "max_time";
    case Objective::kStallTicks:
      return "stall_ticks";
  }
  return "mean_time";
}

Objective parse_objective(const std::string& text) {
  if (text == "mean_time") return Objective::kMeanTime;
  if (text == "max_time") return Objective::kMaxTime;
  if (text == "stall_ticks") return Objective::kStallTicks;
  throw std::invalid_argument(
      "unknown objective '" + text +
      "' (expected mean_time|max_time|stall_ticks)");
}

double objective_value(Objective objective, const swarm::SwarmResult& result,
                       double cap_seconds) {
  switch (objective) {
    case Objective::kMeanTime: {
      if (result.completion_time.empty()) return 0.0;
      double sum = 0.0;
      for (const double t : result.completion_time) {
        sum += t < 0.0 ? cap_seconds : t;
      }
      return sum / static_cast<double>(result.completion_time.size());
    }
    case Objective::kMaxTime: {
      double worst = 0.0;
      for (const double t : result.completion_time) {
        worst = std::max(worst, t < 0.0 ? cap_seconds : t);
      }
      return worst;
    }
    case Objective::kStallTicks:
      return static_cast<double>(result.fault_stats.stall_ticks);
  }
  return 0.0;
}

ShrinkResult shrink(const Schedule& worst, double target_value,
                    const EvaluateFn& evaluate) {
  DSA_OBS_PHASE("explore/shrink");
  ShrinkResult result;
  result.schedule = worst;
  result.value = target_value;
  bool progress = true;
  while (progress && !result.schedule.empty()) {
    progress = false;
    for (std::size_t i = 0; i < result.schedule.size(); ++i) {
      Schedule candidate = result.schedule;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      const double value = evaluate(candidate);
      ++result.evaluations;
      if (value >= target_value) {
        result.schedule = std::move(candidate);
        result.value = value;
        progress = true;
        break;  // 1-minimality: restart the scan from the left
      }
    }
  }
  if (obs::enabled()) {
    obs::Registry::global()
        .counter("explore.shrink_evaluations")
        .add(result.evaluations);
  }
  return result;
}

}  // namespace dsa::explore

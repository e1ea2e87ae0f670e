#include "core/pra.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "stats/descriptive.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dsa::core {

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t tag,
                          std::uint64_t a, std::uint64_t b) {
  std::uint64_t mix = util::hash64(master ^ 0x2545f4914f6cdd1dULL);
  mix ^= util::hash64(tag) * 0x9e3779b97f4a7c15ULL;
  mix ^= util::hash64(a) * 0xff51afd7ed558ccdULL;
  mix ^= util::hash64(b) * 0xc4ceb9fe1a85ec53ULL;
  return util::hash64(mix);
}

PraEngine::PraEngine(const EncounterModel& model, PraConfig config,
                     util::ThreadPool* pool)
    : model_(model), config_(std::move(config)), pool_(pool) {
  if (config_.population < 2) {
    throw std::invalid_argument("PraEngine: population must be >= 2");
  }
  if (config_.performance_runs == 0 || config_.encounter_runs == 0) {
    throw std::invalid_argument("PraEngine: run counts must be positive");
  }
  if (!(config_.minority_fraction > 0.0 && config_.minority_fraction < 1.0)) {
    throw std::invalid_argument(
        "PraEngine: minority_fraction must be in (0, 1)");
  }
  if (model_.protocol_count() < 2) {
    throw std::invalid_argument("PraEngine: need at least 2 protocols");
  }
}

PraEngine::~PraEngine() = default;

util::ThreadPool* PraEngine::pool() const {
  if (pool_ != nullptr) return pool_;
  const std::size_t threads = config_.threads == 0
                                  ? util::ThreadPool::default_thread_count()
                                  : config_.threads;
  if (threads == 1) return nullptr;
  if (!owned_pool_) owned_pool_ = std::make_unique<util::ThreadPool>(threads);
  return owned_pool_.get();
}

template <typename Fn>
void PraEngine::run_grid(std::size_t total, Fn&& fn) const {
  util::ThreadPool* workers = pool();
  if (workers == nullptr) {
    for (std::size_t t = 0; t < total; ++t) fn(t);
    return;
  }
  // Aim for ~32 chunks per worker so stragglers rebalance, but never let a
  // chunk shrink to the point where the shared counter is hot.
  const std::size_t grain = std::clamp<std::size_t>(
      total / (workers->thread_count() * 32 + 1), 1, 64);
  workers->parallel_for(total, std::forward<Fn>(fn), grain);
}

std::size_t PraEngine::pi_count(double pi_fraction) const {
  const auto count = static_cast<std::size_t>(
      std::lround(pi_fraction * static_cast<double>(config_.population)));
  return std::clamp<std::size_t>(count, 1, config_.population - 1);
}

std::size_t PraEngine::opponent_count() const noexcept {
  const auto others = static_cast<std::size_t>(model_.protocol_count()) - 1;
  return config_.opponent_sample == 0 ? others
                                      : std::min(config_.opponent_sample,
                                                 others);
}

std::vector<std::uint32_t> PraEngine::opponents_of(std::uint32_t p) const {
  if (p >= model_.protocol_count()) {
    throw std::invalid_argument("PraEngine::opponents_of: no protocol " +
                                std::to_string(p));
  }
  // Position i of the virtual opponent list: protocol ids ascending, p
  // skipped.
  const auto listed = [p](std::uint32_t i) { return i < p ? i : i + 1; };
  const std::uint32_t others = model_.protocol_count() - 1;
  const std::size_t k = opponent_count();
  std::vector<std::uint32_t> sample(k);
  if (k == others) {
    for (std::uint32_t i = 0; i < others; ++i) sample[i] = listed(i);
    return sample;
  }
  // Step i swaps position i with a uniform j in [i, others). A position no
  // swap displaced still holds listed(position), and position i is never
  // read after step i, so only the (at most k) displaced positions are
  // stored.
  std::unordered_map<std::uint32_t, std::uint32_t> displaced;
  displaced.reserve(k);
  const auto at = [&](std::uint32_t i) {
    const auto it = displaced.find(i);
    return it == displaced.end() ? listed(i) : it->second;
  };
  util::Rng rng(derive_seed(config_.seed, /*tag=*/0xA11, p, 0));
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::uint32_t>(i + rng.below(others - i));
    const std::uint32_t held = at(i);
    sample[i] = at(j);
    displaced[j] = held;
  }
  return sample;
}

std::vector<std::uint32_t> PraEngine::opponent_table(std::uint32_t begin,
                                                     std::uint32_t end) const {
  std::vector<std::uint32_t> table;
  table.reserve(static_cast<std::size_t>(end - begin) * opponent_count());
  for (std::uint32_t p = begin; p < end; ++p) {
    const std::vector<std::uint32_t> sample = opponents_of(p);
    table.insert(table.end(), sample.begin(), sample.end());
  }
  return table;
}

double PraEngine::raw_performance_of(std::uint32_t p) const {
  std::vector<double> runs(config_.performance_runs);
  for (std::size_t r = 0; r < config_.performance_runs; ++r) {
    runs[r] = model_.homogeneous_utility(
        p, config_.population, derive_seed(config_.seed, /*tag=*/0x9E4F, p, r));
  }
  return stats::mean(runs);
}

std::vector<double> PraEngine::raw_performance() const {
  DSA_OBS_PHASE("pra/performance");
  const std::uint32_t count = model_.protocol_count();
  const std::size_t runs = config_.performance_runs;
  const std::size_t total = static_cast<std::size_t>(count) * runs;

  // Flattened (protocol, run) grid: every simulation is its own task, so a
  // protocol with slow runs cannot straggle a whole lane.
  std::vector<double> slots(total, 0.0);
  std::vector<std::atomic<std::size_t>> remaining(count);
  for (auto& r : remaining) r.store(runs, std::memory_order_relaxed);
  std::atomic<std::size_t> done{0};
  run_grid(
      total,
      [&](std::size_t t) {
        const auto p = static_cast<std::uint32_t>(t / runs);
        const std::size_t r = t % runs;
        slots[t] = model_.homogeneous_utility(
            p, config_.population,
            derive_seed(config_.seed, /*tag=*/0x9E4F, p, r));
        if (remaining[p].fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            config_.progress) {
          config_.progress(++done, count);
        }
      });

  // Reduce in run order — the same summation order as raw_performance_of,
  // so the mean is bitwise-identical.
  std::vector<double> raw(count, 0.0);
  for (std::uint32_t p = 0; p < count; ++p) {
    raw[p] = stats::mean(std::span<const double>(&slots[p * runs], runs));
  }
  return raw;
}

double PraEngine::win_rate_of(std::uint32_t p, double pi_fraction) const {
  if (!(pi_fraction > 0.0 && pi_fraction < 1.0)) {
    throw std::invalid_argument("PraEngine::win_rate_of: bad split");
  }
  const std::size_t count_pi = pi_count(pi_fraction);
  const std::size_t count_other = config_.population - count_pi;
  // Distinct seeds per split so the 50-50 and 90-10 experiments are
  // independent samples, as in the paper.
  const auto split_tag =
      static_cast<std::uint64_t>(std::llround(pi_fraction * 1000.0));

  std::size_t wins = 0;
  std::size_t games = 0;
  for (const std::uint32_t opponent : opponents_of(p)) {
    for (std::size_t run = 0; run < config_.encounter_runs; ++run) {
      const std::uint64_t seed =
          derive_seed(config_.seed, split_tag,
                      (static_cast<std::uint64_t>(p) << 32) | opponent, run);
      const auto [pi_mean, other_mean] =
          model_.mixed_utilities(p, opponent, count_pi, count_other, seed);
      // A strict win, as in Sec. 4.3.2 ("otherwise we mark it as a Loss").
      if (pi_mean > other_mean) ++wins;
      ++games;
    }
  }
  return games == 0 ? 0.0
                    : static_cast<double>(wins) / static_cast<double>(games);
}

std::vector<double> PraEngine::tournament(double pi_fraction) const {
  DSA_OBS_PHASE("pra/tournament");
  if (!(pi_fraction > 0.0 && pi_fraction < 1.0)) {
    throw std::invalid_argument("PraEngine::tournament: bad split");
  }
  const std::uint32_t count = model_.protocol_count();
  const std::size_t count_pi = pi_count(pi_fraction);
  const std::size_t count_other = config_.population - count_pi;
  const auto split_tag =
      static_cast<std::uint64_t>(std::llround(pi_fraction * 1000.0));
  const std::size_t opponents = opponent_count();
  const std::size_t runs = config_.encounter_runs;
  const std::size_t games = opponents * runs;
  const std::size_t total = static_cast<std::size_t>(count) * games;

  // Flattened (protocol, opponent, run) grid; each task records one win bit.
  const std::vector<std::uint32_t> table = opponent_table(0, count);
  std::vector<std::uint8_t> win(total, 0);
  std::vector<std::atomic<std::size_t>> remaining(count);
  for (auto& r : remaining) r.store(games, std::memory_order_relaxed);
  std::atomic<std::size_t> done{0};
  run_grid(
      total,
      [&](std::size_t t) {
        const auto p = static_cast<std::uint32_t>(t / games);
        const std::size_t rem = t % games;
        const std::uint32_t opponent = table[p * opponents + rem / runs];
        const std::size_t run = rem % runs;
        const std::uint64_t seed =
            derive_seed(config_.seed, split_tag,
                        (static_cast<std::uint64_t>(p) << 32) | opponent, run);
        const auto [pi_mean, other_mean] =
            model_.mixed_utilities(p, opponent, count_pi, count_other, seed);
        win[t] = pi_mean > other_mean ? 1 : 0;
        if (remaining[p].fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            config_.progress) {
          config_.progress(++done, count);
        }
      });

  // Integer win counts are order-free, so this matches win_rate_of exactly.
  std::vector<double> win_rate(count, 0.0);
  for (std::uint32_t p = 0; p < count; ++p) {
    std::size_t wins = 0;
    for (std::size_t g = 0; g < games; ++g) {
      wins += win[static_cast<std::size_t>(p) * games + g];
    }
    win_rate[p] = games == 0 ? 0.0
                             : static_cast<double>(wins) /
                                   static_cast<double>(games);
  }
  return win_rate;
}

std::vector<ProtocolMetrics> PraEngine::quantify(std::uint32_t begin,
                                                 std::uint32_t end) const {
  if (begin > end || end > model_.protocol_count()) {
    throw std::invalid_argument("PraEngine::quantify: bad protocol range");
  }
  const std::size_t batch = end - begin;
  if (batch == 0) return {};

  const std::size_t perf_runs = config_.performance_runs;
  const std::size_t runs = config_.encounter_runs;
  const std::size_t opponents = opponent_count();
  const std::size_t games = opponents * runs;  // per split

  const std::size_t count_rob = pi_count(0.5);
  const std::size_t count_agg = pi_count(config_.minority_fraction);
  const auto rob_tag = static_cast<std::uint64_t>(std::llround(0.5 * 1000.0));
  const auto agg_tag = static_cast<std::uint64_t>(
      std::llround(config_.minority_fraction * 1000.0));

  // Every simulation of the batch — performance runs and both tournaments'
  // games, across all protocols — is one task in a single flattened grid,
  // so the chunk finishes when the last simulation does, not when the last
  // protocol's serial loop does.
  const std::size_t per_protocol = perf_runs + 2 * games;
  const std::size_t total = batch * per_protocol;

  const std::vector<std::uint32_t> table = opponent_table(begin, end);
  std::vector<double> perf_slots(batch * perf_runs, 0.0);
  std::vector<std::uint8_t> win(batch * 2 * games, 0);
  std::vector<std::atomic<std::size_t>> remaining(batch);
  for (auto& r : remaining) {
    r.store(per_protocol, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> done{0};

  // Instrumentation is hoisted once per chunk: the flag, the metric
  // handles, and the per-protocol accumulators. Inside the task the only
  // extra work when disabled is one predictable branch; timing reads only
  // the steady clock, never RNG state, so results are unaffected.
  DSA_OBS_PHASE("pra/quantify");
  const bool obs_on = obs::enabled();
  obs::Distribution task_ms;
  obs::Distribution protocol_ms;
  std::vector<std::atomic<std::uint64_t>> protocol_ns(obs_on ? batch : 0);
  std::chrono::steady_clock::time_point chunk_start;
  if (obs_on) {
    auto& registry = obs::Registry::global();
    task_ms = registry.distribution("pra.task_ms");
    protocol_ms = registry.distribution("pra.protocol_ms");
    chunk_start = std::chrono::steady_clock::now();
  }

  run_grid(
      total,
      [&](std::size_t t) {
        std::chrono::steady_clock::time_point task_start;
        if (obs_on) task_start = std::chrono::steady_clock::now();
        const std::size_t slot = t / per_protocol;
        const auto p = static_cast<std::uint32_t>(begin + slot);
        std::size_t local = t % per_protocol;
        if (local < perf_runs) {
          perf_slots[slot * perf_runs + local] = model_.homogeneous_utility(
              p, config_.population,
              derive_seed(config_.seed, /*tag=*/0x9E4F, p, local));
        } else {
          local -= perf_runs;
          const std::size_t split = local / games;  // 0 = 50/50, 1 = minority
          const std::size_t game = local % games;
          const std::uint32_t opponent =
              table[slot * opponents + game / runs];
          const std::size_t run = game % runs;
          const std::uint64_t tag = split == 0 ? rob_tag : agg_tag;
          const std::size_t count_pi = split == 0 ? count_rob : count_agg;
          const std::uint64_t seed = derive_seed(
              config_.seed, tag,
              (static_cast<std::uint64_t>(p) << 32) | opponent, run);
          const auto [pi_mean, other_mean] = model_.mixed_utilities(
              p, opponent, count_pi, config_.population - count_pi, seed);
          win[slot * 2 * games + split * games + game] =
              pi_mean > other_mean ? 1 : 0;
        }
        if (obs_on) {
          const auto task_ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - task_start)
                  .count());
          task_ms.observe(static_cast<double>(task_ns) / 1e6);
          protocol_ns[slot].fetch_add(task_ns, std::memory_order_relaxed);
        }
        if (remaining[slot].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          if (obs_on) {
            protocol_ms.observe(
                static_cast<double>(
                    protocol_ns[slot].load(std::memory_order_relaxed)) /
                1e6);
          }
          if (config_.progress) config_.progress(++done, batch);
        }
      });

  if (obs_on) {
    auto& registry = obs::Registry::global();
    registry.counter("pra.tasks_completed").add(total);
    registry.counter("pra.protocols_quantified").add(batch);
    const double elapsed_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - chunk_start)
                                 .count();
    if (elapsed_s > 0.0) {
      registry.gauge("pra.tasks_per_sec")
          .set(static_cast<double>(total) / elapsed_s);
    }
  }

  std::vector<ProtocolMetrics> metrics(batch);
  for (std::size_t slot = 0; slot < batch; ++slot) {
    // Mean in run order — bitwise-identical to raw_performance_of.
    metrics[slot].raw_performance = stats::mean(
        std::span<const double>(&perf_slots[slot * perf_runs], perf_runs));
    const std::uint8_t* w = &win[slot * 2 * games];
    std::size_t rob_wins = 0;
    std::size_t agg_wins = 0;
    for (std::size_t g = 0; g < games; ++g) {
      rob_wins += w[g];
      agg_wins += w[games + g];
    }
    metrics[slot].robustness =
        games == 0 ? 0.0
                   : static_cast<double>(rob_wins) /
                         static_cast<double>(games);
    metrics[slot].aggressiveness =
        games == 0 ? 0.0
                   : static_cast<double>(agg_wins) /
                         static_cast<double>(games);
  }
  return metrics;
}

PraScores PraEngine::run() const {
  PraScores scores;
  scores.raw_performance = raw_performance();
  const double best = stats::max_value(scores.raw_performance);
  scores.performance.resize(scores.raw_performance.size(), 0.0);
  if (best > 0.0) {
    for (std::size_t i = 0; i < scores.performance.size(); ++i) {
      scores.performance[i] = scores.raw_performance[i] / best;
    }
  }
  scores.robustness = tournament(0.5);
  scores.aggressiveness = tournament(config_.minority_fraction);
  return scores;
}

}  // namespace dsa::core

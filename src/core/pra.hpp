// The PRA quantification (Sec. 3.2): maps every protocol in a design space
// to a (Performance, Robustness, Aggressiveness) point in [0,1]^3.
//
//  * Performance — population utility when everyone runs the protocol,
//    averaged over repetitions and normalized so the best protocol scores 1.
//  * Robustness — fraction of encounters won against (all | a sample of)
//    other protocols when the protocol holds 50% of the population; a win is
//    a strictly higher group-average utility (Sec. 4.3.2).
//  * Aggressiveness — the same with the protocol holding 10%.
//
// The engine also exposes tournaments at arbitrary splits, which the paper
// uses for its 90-10 robustness validation (Pearson rho ~= 0.97 vs 50-50).
//
// The paper ran this as ~107 million simulations on a 50-node cluster; the
// engine reproduces the statistic with a thread pool plus optional opponent
// sampling (opponent_sample > 0), trading precision of the win-rate estimate
// for tractable wall-clock time. Every simulation derives its own seed from
// (master seed, experiment tag, protocol, opponent, run), so results are
// independent of thread scheduling.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/model.hpp"

namespace dsa::util {
class ThreadPool;
}  // namespace dsa::util

namespace dsa::core {

/// Tournament and performance-experiment controls.
struct PraConfig {
  std::size_t population = 50;       // swarm size (Sec. 4.3.1)
  std::size_t performance_runs = 100;  // homogeneous repetitions per protocol
  std::size_t encounter_runs = 10;   // repetitions per protocol pair
  /// Opponents per protocol in tournaments: 0 = every other protocol
  /// (the paper's exhaustive setting), else a per-protocol random sample.
  std::size_t opponent_sample = 0;
  double minority_fraction = 0.1;    // Aggressiveness split for protocol Pi
  std::uint64_t seed = 2011;
  std::size_t threads = 0;           // 0 = hardware concurrency
  /// Optional progress observer: (protocols finished, protocols total).
  /// May be invoked concurrently from worker threads.
  std::function<void(std::size_t, std::size_t)> progress;
};

/// The full PRA characterization of a design space.
struct PraScores {
  std::vector<double> raw_performance;  // domain units (e.g. KBps)
  std::vector<double> performance;      // normalized to [0, 1]
  std::vector<double> robustness;       // win rate at the 50/50 split
  std::vector<double> aggressiveness;   // win rate at the 10/90 split
};

/// All three metrics of one protocol, as computed by PraEngine::quantify.
struct ProtocolMetrics {
  double raw_performance = 0.0;  // domain units (not normalized)
  double robustness = 0.0;       // win rate at the 50/50 split
  double aggressiveness = 0.0;   // win rate at the minority split
};

/// Runs PRA over a model's whole protocol space.
///
/// All scheduling goes through one ThreadPool — caller-provided or lazily
/// owned, or none when one worker runs the grid inline — and every
/// experiment is flattened into a grid of independent per-simulation tasks,
/// so one slow protocol never straggles a pass.
/// Methods parallelize internally; the engine itself must not be driven from
/// multiple threads at once. Results are independent of the pool size and
/// of task scheduling (per-item seed derivation).
class PraEngine {
 public:
  /// The model must outlive the engine. Throws std::invalid_argument on
  /// degenerate configs (population < 2, zero runs, fraction outside (0,1)).
  ///
  /// When `pool` is non-null the engine schedules every experiment on it
  /// (the pool must outlive the engine and config.threads is ignored);
  /// otherwise the engine lazily creates its own pool with config.threads
  /// workers (0 = hardware concurrency) on first use — unless that is one
  /// worker, in which case every grid runs inline on the calling thread and
  /// no thread is ever started.
  ///
  /// Construction only validates: opponent samples are drawn on demand, per
  /// protocol, by the methods that need them.
  PraEngine(const EncounterModel& model, PraConfig config,
            util::ThreadPool* pool = nullptr);
  ~PraEngine();
  PraEngine(const PraEngine&) = delete;
  PraEngine& operator=(const PraEngine&) = delete;

  /// Homogeneous-population performance, averaged over performance_runs,
  /// in raw domain units (one entry per protocol).
  [[nodiscard]] std::vector<double> raw_performance() const;

  /// Raw performance of a single protocol. Seeds derive from (seed, p, run)
  /// only, so raw_performance()[p] == raw_performance_of(p) exactly — the
  /// property the checkpoint/resume path of the PRA sweep relies on.
  [[nodiscard]] double raw_performance_of(std::uint32_t p) const;

  /// Win rate per protocol when it holds `pi_fraction` of the population.
  /// pi_fraction = 0.5 gives Robustness, 0.1 Aggressiveness, 0.9 the 90-10
  /// validation. Throws std::invalid_argument unless 0 < pi_fraction < 1.
  [[nodiscard]] std::vector<double> tournament(double pi_fraction) const;

  /// Win rate of a single protocol at a split; tournament(f)[p] ==
  /// win_rate_of(p, f) exactly (same per-item seed derivation). Runs
  /// serially on the calling thread.
  [[nodiscard]] double win_rate_of(std::uint32_t p, double pi_fraction) const;

  /// All three metrics for protocols [begin, end), scheduled as one
  /// flattened grid of performance_runs + 2 * opponents * encounter_runs
  /// simulations per protocol — the batch primitive behind the PRA dataset
  /// sweep's checkpoint chunks. Entry i describes protocol begin + i, with
  /// values exactly equal to raw_performance_of / win_rate_of(·, 0.5) /
  /// win_rate_of(·, minority_fraction). The progress callback, if set,
  /// reports (protocols finished, protocols in batch).
  [[nodiscard]] std::vector<ProtocolMetrics> quantify(std::uint32_t begin,
                                                      std::uint32_t end) const;

  /// The opponents protocol p faces in every tournament, in play order:
  /// every other protocol ascending in the exhaustive case, else the first
  /// opponent_sample entries of a partial Fisher-Yates shuffle of that list
  /// seeded by (seed, p). The shuffle runs over the list virtually and keeps
  /// only the positions its swaps displaced, so a draw costs
  /// O(opponent_sample), not O(protocol count). The sample is the same at
  /// every split, which keeps the 50-50 and minority tournaments comparable.
  /// Throws std::invalid_argument if p is not a protocol of the model.
  [[nodiscard]] std::vector<std::uint32_t> opponents_of(std::uint32_t p) const;

  /// Performance + Robustness + Aggressiveness in one pass.
  [[nodiscard]] PraScores run() const;

  [[nodiscard]] const PraConfig& config() const noexcept { return config_; }

 private:
  /// Peers assigned to protocol Pi at a split; at least 1, at most
  /// population - 1.
  [[nodiscard]] std::size_t pi_count(double pi_fraction) const;

  /// Opponents every protocol faces per tournament: everyone else, or the
  /// configured sample size.
  [[nodiscard]] std::size_t opponent_count() const noexcept;

  /// opponents_of(p) for every p in [begin, end), concatenated: entry
  /// (p - begin) * opponent_count() + j is p's j-th opponent.
  [[nodiscard]] std::vector<std::uint32_t> opponent_table(
      std::uint32_t begin, std::uint32_t end) const;

  /// The scheduler for config.threads workers: the caller's pool, the
  /// lazily-built owned one, or nullptr when one worker means inline.
  [[nodiscard]] util::ThreadPool* pool() const;

  /// Runs fn(t) for every t in [0, total) on pool(), or inline on the
  /// calling thread when pool() is nullptr.
  template <typename Fn>
  void run_grid(std::size_t total, Fn&& fn) const;

  const EncounterModel& model_;
  PraConfig config_;
  util::ThreadPool* pool_ = nullptr;
  mutable std::unique_ptr<util::ThreadPool> owned_pool_;
};

/// Mixes a master seed with an experiment tag and work-item coordinates into
/// an independent simulation seed.
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t tag,
                          std::uint64_t a, std::uint64_t b);

}  // namespace dsa::core

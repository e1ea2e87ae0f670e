// Generation, persistence, and loading of the full PRA dataset over the
// file-swarming design space — the expensive computation shared by the
// Figure 2-8 and Table 3 benches.
//
// Scale is controlled by environment variables so the same binaries serve a
// quick laptop pass and a paper-fidelity cluster run:
//   DSA_ROUNDS          rounds per simulation       (default 120; paper 500)
//   DSA_POPULATION      peers per simulation        (default 50;  paper 50)
//   DSA_PERF_RUNS       homogeneous runs/protocol   (default 3;   paper 100)
//   DSA_ENCOUNTER_RUNS  runs per protocol pair      (default 1;   paper 10)
//   DSA_OPPONENTS       opponents sampled/protocol  (default 24;  paper: all)
//   DSA_THREADS         worker threads              (default: hardware)
//   DSA_SEED            master seed                 (default 2011)
//   DSA_FULL=1          shorthand for the paper-fidelity values above
//   DSA_RESULTS         dataset path (default results/pra_results.csv)
//   DSA_CHECKPOINT      protocols per checkpoint chunk (default 256; 0 off)
//
// The sweep checkpoints its partial results every DSA_CHECKPOINT protocols
// to `<path>.partial-<fingerprint>` (the fingerprint encodes every scale
// knob, so a resumed run never mixes incompatible numbers) and resumes from
// the checkpoint after a crash or kill. Per-protocol seeds depend only on
// (seed, protocol, run), so a resumed sweep produces bitwise-identical
// results to an uninterrupted one.
#pragma once

#include <filesystem>
#include <optional>
#include <vector>

#include "core/pra.hpp"
#include "swarming/protocol.hpp"
#include "swarming/simulator.hpp"
#include "util/csv.hpp"

namespace dsa::swarming {

/// One protocol's PRA characterization plus its decoded design dimensions.
struct PraRecord {
  std::uint32_t protocol = 0;
  ProtocolSpec spec;
  double raw_performance = 0.0;
  double performance = 0.0;
  double robustness = 0.0;
  double aggressiveness = 0.0;
};

/// Reads the scale knobs above into a PraConfig (and rounds/population into
/// the returned simulation config through PraDatasetOptions).
struct PraDatasetOptions {
  core::PraConfig pra;
  std::size_t rounds = 120;
  std::filesystem::path path = "results/pra_results.csv";
  /// Protocols computed between checkpoint saves; 0 disables checkpointing.
  std::size_t checkpoint_interval = 256;

  /// Builds options from the environment (see header comment).
  static PraDatasetOptions from_environment();
};

/// Where the partial-results checkpoint of a sweep with these options lives:
/// `<path>.partial-<fingerprint>`, the fingerprint hashing every knob that
/// affects the numbers (seed, rounds, population, run counts, sampling,
/// minority fraction).
std::filesystem::path pra_checkpoint_path(const PraDatasetOptions& options);

/// Persists the first `count` records of a sweep (atomically, via
/// CsvTable::save). Only raw metrics are stored; normalization happens once
/// the sweep finishes.
void save_pra_checkpoint(const std::vector<PraRecord>& records,
                         std::size_t count, const std::filesystem::path& path);

/// Loads a checkpoint written by save_pra_checkpoint. Returns the records in
/// protocol order; an absent, unreadable, or malformed checkpoint (rows not
/// a contiguous protocol prefix) yields an empty vector — the sweep then
/// just starts over.
std::vector<PraRecord> load_pra_checkpoint(const std::filesystem::path& path);

/// Runs the full PRA quantification over all 3270 protocols with the given
/// options, printing coarse progress to stderr when `verbose`.
std::vector<PraRecord> compute_pra_dataset(const PraDatasetOptions& options,
                                           bool verbose = false);

/// CSV round-trip.
void save_pra_dataset(const std::vector<PraRecord>& records,
                      const std::filesystem::path& path);
std::vector<PraRecord> load_pra_dataset(const std::filesystem::path& path);

/// Loads the dataset at options.path, computing and saving it first when
/// missing (the shared-cache behavior of the figure benches).
std::vector<PraRecord> load_or_compute_pra_dataset(
    const PraDatasetOptions& options, bool verbose = true);

}  // namespace dsa::swarming

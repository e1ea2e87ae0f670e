// The PRA dataset over the file-swarming design space: one record per
// protocol, and its canonical CSV form (results/pra_results.csv) that the
// Figure 2-8 and Table 3 benches read.
//
// The dataset is computed by the scenario runner's `sweep` kind
// (src/scenario), which `dsa_cli sweep`, `dsa_cli run` and the figure
// benches all go through; this header only formats and reads it.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "swarming/protocol.hpp"
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

/// Columns of the canonical dataset CSV, in order.
[[nodiscard]] const std::vector<std::string>& pra_dataset_columns();

/// The canonical dataset table: design dimensions spelled out, metrics at
/// the dataset's display precision. The one writer of the format.
[[nodiscard]] util::CsvTable pra_dataset_table(
    const std::vector<PraRecord>& records);

/// CSV round-trip (the save is atomic, via CsvTable::save).
void save_pra_dataset(const std::vector<PraRecord>& records,
                      const std::filesystem::path& path);
std::vector<PraRecord> load_pra_dataset(const std::filesystem::path& path);

}  // namespace dsa::swarming

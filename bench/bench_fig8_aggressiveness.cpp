// Figure 8: Robustness vs Aggressiveness scatter — the two measures are
// strongly linearly correlated (Pearson ~0.96 in the paper), so robust
// protocols are also aggressive.
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "stats/correlation.hpp"
#include "stats/histogram.hpp"
#include "util/table_printer.hpp"

using namespace dsa;

int main() {
  ::dsa::bench::MetricsScope metrics_scope("fig8_aggressiveness");
  bench::banner(
      "Fig. 8 — Robustness vs Aggressiveness scatter",
      "Robustness and Aggressiveness are linearly correlated with Pearson "
      "rho ~= 0.96; conclusions about Robustness carry over");

  const auto records = bench::dataset();

  std::vector<double> robustness, aggressiveness;
  robustness.reserve(records.size());
  for (const auto& rec : records) {
    robustness.push_back(rec.robustness);
    aggressiveness.push_back(rec.aggressiveness);
  }

  const double rho = stats::pearson(robustness, aggressiveness);
  const double rank_rho = stats::spearman(robustness, aggressiveness);
  std::printf("\nPearson correlation:  %.4f (paper: 0.96)\n", rho);
  std::printf("Spearman correlation: %.4f\n", rank_rho);

  // A coarse 2-D density table as the textual scatter.
  std::printf("\nJoint density (robustness rows x aggressiveness columns, "
              "counts):\n");
  constexpr std::size_t kBins = 5;
  std::size_t grid[kBins][kBins] = {};
  for (std::size_t i = 0; i < robustness.size(); ++i) {
    auto bin = [](double v) {
      auto b = static_cast<std::size_t>(v * kBins);
      return std::min(b, kBins - 1);
    };
    ++grid[bin(robustness[i])][bin(aggressiveness[i])];
  }
  util::TablePrinter table(
      {"R \\ A", "[0,.2)", "[.2,.4)", "[.4,.6)", "[.6,.8)", "[.8,1]"});
  for (std::size_t r = kBins; r-- > 0;) {
    std::vector<std::string> cells;
    cells.push_back(bench::interval_label(r * 0.2, (r + 1) * 0.2));
    for (std::size_t a = 0; a < kBins; ++a) {
      cells.push_back(std::to_string(grid[r][a]));
    }
    table.add_row(cells);
  }
  table.print(std::cout);

  std::printf("\n");
  bench::verdict(rho > 0.85,
                 "robustness and aggressiveness are strongly linearly "
                 "correlated (rho = " + util::fixed(rho, 3) + ")");
  return 0;
}

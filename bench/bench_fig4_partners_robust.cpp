// Figure 4: normalized Robustness histograms per partner count — the mirror
// image of Fig. 3: highly robust protocols maintain MANY partners.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "stats/histogram.hpp"
#include "util/table_printer.hpp"

using namespace dsa;

int main() {
  ::dsa::bench::MetricsScope metrics_scope("fig4_partners_robust");
  bench::banner(
      "Fig. 4 — Robustness-interval x partner-count frequency map",
      "most highly robust protocols keep a high number of partners (the "
      "situation of Fig. 3 reversed)");

  const auto records = bench::dataset();

  stats::FrequencyGrid grid(10, 10);
  for (const auto& rec : records) {
    grid.add(rec.robustness, rec.spec.partner_slots);
  }

  std::printf("\nRow-relative frequencies, rows from high robustness to "
              "low:\n");
  util::TablePrinter table({"robustness", "k=0", "k=1", "k=2", "k=3", "k=4",
                            "k=5", "k=6", "k=7", "k=8", "k=9", "n"});
  for (std::size_t row = grid.rows(); row-- > 0;) {
    std::vector<std::string> cells;
    cells.push_back(
        bench::interval_label(grid.row_lower(row), grid.row_upper(row)));
    for (std::size_t k = 0; k < 10; ++k) {
      cells.push_back(util::fixed(grid.row_relative_frequency(row, k), 2));
    }
    cells.push_back(std::to_string(grid.row_total(row)));
    table.add_row(cells);
  }
  table.print(std::cout);

  // Mean k among the most robust decile vs the space, and the most robust
  // protocol's anatomy.
  std::vector<std::size_t> order(records.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return records[a].robustness > records[b].robustness;
  });
  const std::size_t decile = records.size() / 10;
  double top_decile_k = 0.0, all_k = 0.0;
  for (std::size_t i = 0; i < decile; ++i) {
    top_decile_k += records[order[i]].spec.partner_slots;
  }
  top_decile_k /= static_cast<double>(decile);
  for (const auto& rec : records) all_k += rec.spec.partner_slots;
  all_k /= static_cast<double>(records.size());
  std::printf("\nMean partner count: most-robust decile %.2f vs whole space "
              "%.2f\n",
              top_decile_k, all_k);

  std::printf("\nTop 5 robust protocols:\n");
  for (std::size_t i = 0; i < 5; ++i) {
    const auto& rec = records[order[i]];
    std::printf("  %zu. R=%.3f  %s  (P=%.3f)\n", i + 1, rec.robustness,
                rec.spec.describe().c_str(), rec.performance);
  }
  std::printf("  (paper's most robust protocol keeps 7 partners and combines "
              "When-needed + Sort Fastest + Prop Share)\n");

  bench::verdict(top_decile_k > all_k,
                 "robust protocols carry more partners than the space "
                 "average — the reverse of the performance picture");
  return 0;
}

// Figure 3: normalized Performance histograms per partner count — the
// "darker squares" frequency map showing that top-performing protocols
// maintain few partners.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "stats/histogram.hpp"
#include "util/table_printer.hpp"

using namespace dsa;

int main() {
  ::dsa::bench::MetricsScope metrics_scope("fig3_partners_perf");
  bench::banner(
      "Fig. 3 — Performance-interval x partner-count frequency map",
      "all top-15 performers keep 1 partner; only 11 of the top 100 keep "
      "more than 2; low partner counts dominate the high-performance rows");

  const auto records = bench::dataset();

  stats::FrequencyGrid grid(10, 10);  // performance deciles x k in 0..9
  for (const auto& rec : records) {
    grid.add(rec.performance, rec.spec.partner_slots);
  }

  std::printf("\nRow-relative frequencies (Fig. 3's square darkness), rows "
              "from high performance to low:\n");
  util::TablePrinter table({"performance", "k=0", "k=1", "k=2", "k=3", "k=4",
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

  // Top-N anatomy, as the paper reports it.
  std::vector<std::size_t> order(records.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return records[a].performance > records[b].performance;
  });
  std::size_t top15_low_k = 0;
  for (std::size_t i = 0; i < 15; ++i) {
    if (records[order[i]].spec.partner_slots <= 2) ++top15_low_k;
  }
  std::size_t top100_over2 = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    if (records[order[i]].spec.partner_slots > 2) ++top100_over2;
  }
  std::printf("\nTop 15 performers with k <= 2: %zu/15 (paper: 15/15 with "
              "k = 1)\n",
              top15_low_k);
  std::printf("Top 100 performers with k > 2: %zu/100 (paper: 11/100)\n",
              top100_over2);
  std::printf("\nTop 5 performers:\n");
  for (std::size_t i = 0; i < 5; ++i) {
    const auto& rec = records[order[i]];
    std::printf("  %zu. P=%.3f  %s\n", i + 1, rec.performance,
                rec.spec.describe().c_str());
  }

  // Mean k among the top decile vs the space.
  double top_decile_k = 0.0, all_k = 0.0;
  const std::size_t decile = records.size() / 10;
  for (std::size_t i = 0; i < decile; ++i) {
    top_decile_k += records[order[i]].spec.partner_slots;
  }
  top_decile_k /= static_cast<double>(decile);
  for (const auto& rec : records) all_k += rec.spec.partner_slots;
  all_k /= static_cast<double>(records.size());
  std::printf("\nMean partner count: top decile %.2f vs whole space %.2f\n",
              top_decile_k, all_k);

  bench::verdict(top15_low_k >= 10 && top_decile_k < all_k,
                 "the high-performance region is dominated by low partner "
                 "counts");
  return 0;
}

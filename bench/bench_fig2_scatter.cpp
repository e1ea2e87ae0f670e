// Figure 2: scatter of all 3270 protocols, Robustness vs Performance, with
// marginal histograms; plus the in-text analyses tied to it — the freerider
// clusters, the best-performing protocol's anatomy, and Birds' placement in
// the space (Sec. 4.4.2).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "stats/histogram.hpp"
#include "swarming/protocol.hpp"
#include "util/csv.hpp"
#include "util/table_printer.hpp"

using namespace dsa;
using namespace dsa::swarming;

int main() {
  ::dsa::bench::MetricsScope metrics_scope("fig2_scatter");
  bench::banner(
      "Fig. 2 — Robustness vs Performance scatter over all 3270 protocols",
      "freeriders crowd the low-P/low-R corner (perf <= ~0.31 for "
      "partner-freeriders); some protocols reach both P and R above 0.8; "
      "Birds ranks high in P (~0.83) and upper-quartile in R");

  const auto records = bench::dataset();

  // Machine-readable scatter (also saved by the dataset cache itself).
  std::printf("\nscatter rows: protocol,performance,robustness (first 10 of %zu "
              "shown; full data in the PRA dataset CSV)\n",
              records.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(records.size(), 10); ++i) {
    std::printf("  %u,%s,%s\n", records[i].protocol,
                util::fixed(records[i].performance, 4).c_str(),
                util::fixed(records[i].robustness, 4).c_str());
  }

  // Marginal histograms, 10 bins each (the side panels of Fig. 2).
  stats::Histogram1D perf_hist(10, 0.0, 1.0);
  stats::Histogram1D robust_hist(10, 0.0, 1.0);
  for (const auto& rec : records) {
    perf_hist.add(rec.performance);
    robust_hist.add(rec.robustness);
  }
  std::printf("\nMarginal histograms (protocol counts per decile):\n");
  util::TablePrinter hist({"interval", "performance", "robustness"});
  for (std::size_t bin = 0; bin < 10; ++bin) {
    hist.add_row({bench::interval_label(perf_hist.bin_lower(bin),
                                        perf_hist.bin_upper(bin)),
                  std::to_string(perf_hist.count(bin)),
                  std::to_string(robust_hist.count(bin))});
  }
  hist.print(std::cout);

  // Freerider analysis (Sec. 4.4). Partner-freeriders = Freeride allocation.
  double max_freerider_perf = 0.0;
  std::size_t freeriders_low_corner = 0, freerider_count = 0;
  for (const auto& rec : records) {
    if (rec.spec.allocation != AllocationPolicy::kFreeride) continue;
    ++freerider_count;
    max_freerider_perf = std::max(max_freerider_perf, rec.performance);
    if (rec.performance <= 0.4 && rec.robustness <= 0.4) {
      ++freeriders_low_corner;
    }
  }
  std::printf("\nPartner-freeriders (Freeride allocation): %zu protocols, "
              "max performance %.3f (paper: ~0.31), %zu in the low-P/low-R "
              "corner\n",
              freerider_count, max_freerider_perf, freeriders_low_corner);

  // Best performer's anatomy.
  const auto best = std::max_element(
      records.begin(), records.end(),
      [](const auto& a, const auto& b) { return a.performance < b.performance; });
  std::printf("\nBest-performing protocol: #%u  %s\n  P=%.3f R=%.3f A=%.3f\n",
              best->protocol, best->spec.describe().c_str(),
              best->performance, best->robustness, best->aggressiveness);
  std::printf("  (paper's best performer: Defect strangers + Sort Slowest + "
              "1 partner; see EXPERIMENTS.md for the measured anatomy)\n");

  // High-P/high-R protocols (the paper finds 9, all Sort Loyal).
  std::size_t both_high = 0, both_high_loyal = 0;
  for (const auto& rec : records) {
    if (rec.performance > 0.8 && rec.robustness > 0.8) {
      ++both_high;
      if (rec.spec.ranking == RankingFunction::kLoyal) ++both_high_loyal;
    }
  }
  std::printf("\nProtocols with P > 0.8 AND R > 0.8: %zu (of which Sort "
              "Loyal: %zu) — paper: 9, all Sort Loyal\n",
              both_high, both_high_loyal);

  // Birds placement (Sec. 4.4.2): best variant that ranks by Proximity with
  // Equal Split.
  double birds_best_p = 0.0, birds_best_r = 0.0, birds_best_a = 0.0;
  for (const auto& rec : records) {
    if (rec.spec.ranking != RankingFunction::kProximity ||
        rec.spec.partner_slots == 0) {
      continue;
    }
    if (rec.spec.allocation == AllocationPolicy::kEqualSplit) {
      birds_best_p = std::max(birds_best_p, rec.performance);
    }
    birds_best_r = std::max(birds_best_r, rec.robustness);
    birds_best_a = std::max(birds_best_a, rec.aggressiveness);
  }
  auto rank_of = [&records](double value, auto metric) {
    std::size_t better = 0;
    for (const auto& rec : records) {
      if (metric(rec) > value) ++better;
    }
    return better + 1;
  };
  const std::size_t birds_p_rank = rank_of(
      birds_best_p, [](const PraRecord& r) { return r.performance; });
  const std::size_t birds_r_rank =
      rank_of(birds_best_r, [](const PraRecord& r) { return r.robustness; });
  const std::size_t birds_a_rank = rank_of(
      birds_best_a, [](const PraRecord& r) { return r.aggressiveness; });
  std::printf("\nBirds in the space (best Proximity variants):\n");
  std::printf("  Performance %.3f (rank %zu; paper: 0.83, rank 30)\n",
              birds_best_p, birds_p_rank);
  std::printf("  Robustness  %.3f (rank %zu; paper: 0.76, rank 714)\n",
              birds_best_r, birds_r_rank);
  std::printf("  Aggressiveness %.3f (rank %zu; paper: 0.74, rank 630)\n",
              birds_best_a, birds_a_rank);

  std::printf("\n");
  bench::verdict(
      max_freerider_perf < 0.5 && birds_best_p > 0.7 &&
          birds_p_rank < records.size() / 10,
      "freerider ceiling well below the cooperative cluster; Birds places "
      "in the top performance decile");
  return 0;
}

// Upload-capacity distribution used to initialize peers "in order to lend
// realism" (Sec. 4.3.1), standing in for the measured distribution of
// Piatek et al., "Do incentives build robustness in BitTorrent?" (NSDI'07).
//
// We encode a piecewise-linear inverse CDF with the published shape: a median
// around 56 KBps, most peers below ~300 KBps, and a thin but heavy tail of
// high-capacity peers up to 5 MBps. Absolute numbers matter less than the
// heterogeneity (many slow classes, few fast ones), which drives every
// class-based result in the paper.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace dsa::swarming {

/// Piecewise-linear inverse CDF of peer upload capacity in KBps.
class BandwidthDistribution {
 public:
  /// One knot: `quantile` in [0, 1] maps to `capacity_kbps`.
  struct Knot {
    double quantile;
    double capacity_kbps;
  };

  /// Builds from knots sorted by quantile, starting at quantile 0 and ending
  /// at quantile 1, with finite, positive, non-decreasing capacities.
  /// Throws std::invalid_argument otherwise.
  explicit BandwidthDistribution(std::vector<Knot> knots);

  /// The Piatek et al. NSDI'07 approximation described above.
  static BandwidthDistribution piatek();

  /// Inverse CDF: capacity at `quantile` in [0, 1]; clamps outside values.
  [[nodiscard]] double capacity_at(double quantile) const;

  /// Draws one capacity.
  [[nodiscard]] double sample(util::Rng& rng) const;

  /// Deterministic population of `count` capacities at evenly spaced
  /// quantiles (stratified; midpoint rule). Shuffled by the caller if order
  /// matters. Stratification keeps 50-peer populations faithful to the
  /// distribution instead of re-rolling heavy tails.
  [[nodiscard]] std::vector<double> stratified_sample(std::size_t count) const;

 private:
  std::vector<Knot> knots_;
};

}  // namespace dsa::swarming

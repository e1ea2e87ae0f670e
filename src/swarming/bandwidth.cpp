#include "swarming/bandwidth.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dsa::swarming {

BandwidthDistribution::BandwidthDistribution(std::vector<Knot> knots)
    : knots_(std::move(knots)) {
  if (knots_.size() < 2 || knots_.front().quantile != 0.0 ||
      knots_.back().quantile != 1.0) {
    throw std::invalid_argument(
        "BandwidthDistribution: knots must span quantiles [0, 1]");
  }
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    if (knots_[i].quantile <= knots_[i - 1].quantile ||
        knots_[i].capacity_kbps < knots_[i - 1].capacity_kbps) {
      throw std::invalid_argument(
          "BandwidthDistribution: knots must be strictly increasing in "
          "quantile and non-decreasing in capacity");
    }
  }
  if (knots_.front().capacity_kbps <= 0.0) {
    throw std::invalid_argument(
        "BandwidthDistribution: capacities must be positive");
  }
  for (const Knot& knot : knots_) {
    if (!std::isfinite(knot.capacity_kbps)) {
      throw std::invalid_argument(
          "BandwidthDistribution: capacities must be finite");
    }
  }
}

BandwidthDistribution BandwidthDistribution::piatek() {
  // Approximation of Piatek et al. (NSDI'07), Fig. 2: upload capacities of
  // BitTorrent peers. Median ~56 KBps; 80th percentile ~300 KBps; a few
  // percent of peers above 1 MBps.
  return BandwidthDistribution({
      {0.00, 6.0},
      {0.10, 14.0},
      {0.20, 28.0},
      {0.30, 41.0},
      {0.40, 50.0},
      {0.50, 56.0},
      {0.60, 80.0},
      {0.70, 150.0},
      {0.80, 300.0},
      {0.90, 745.0},
      {0.95, 1523.0},
      {1.00, 5000.0},
  });
}

double BandwidthDistribution::capacity_at(double quantile) const {
  const double q = std::clamp(quantile, 0.0, 1.0);
  // Find the segment containing q (knot count is tiny; linear scan).
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    if (q <= knots_[i].quantile) {
      const Knot& lo = knots_[i - 1];
      const Knot& hi = knots_[i];
      const double t = (q - lo.quantile) / (hi.quantile - lo.quantile);
      return lo.capacity_kbps + t * (hi.capacity_kbps - lo.capacity_kbps);
    }
  }
  return knots_.back().capacity_kbps;
}

double BandwidthDistribution::sample(util::Rng& rng) const {
  return capacity_at(rng.uniform());
}

std::vector<double> BandwidthDistribution::stratified_sample(
    std::size_t count) const {
  std::vector<double> capacities(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double q = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(count);
    capacities[i] = capacity_at(q);
  }
  return capacities;
}

}  // namespace dsa::swarming

// Adapter exposing the Sec. 4.2 file-swarming design space to the generic
// PRA engine (core/pra.hpp): protocol ids map through protocol.hpp's dense
// encoding and utilities come from the round-based simulator.
#pragma once

#include "core/evolution.hpp"
#include "core/model.hpp"
#include "swarming/bandwidth.hpp"
#include "swarming/protocol.hpp"
#include "swarming/simulator.hpp"

namespace dsa::swarming {

/// EncounterModel (2-group tournaments) and PopulationModel (N-group
/// evolutionary dynamics) over the 3270-protocol file-swarming space.
class SwarmingModel final : public core::EncounterModel,
                            public core::PopulationModel {
 public:
  /// `base` provides rounds / churn / aspiration smoothing; its seed field
  /// is ignored (the PRA engine supplies per-run seeds).
  SwarmingModel(SimulationConfig base, BandwidthDistribution bandwidths)
      : base_(base), bandwidths_(std::move(bandwidths)) {}

  [[nodiscard]] std::uint32_t protocol_count() const override {
    return kProtocolCount;
  }

  [[nodiscard]] std::string protocol_name(std::uint32_t id) const override {
    return decode_protocol(id).describe();
  }

  [[nodiscard]] double homogeneous_utility(std::uint32_t protocol,
                                           std::size_t population,
                                           std::uint64_t seed) const override;

  [[nodiscard]] std::pair<double, double> mixed_utilities(
      std::uint32_t a, std::uint32_t b, std::size_t count_a,
      std::size_t count_b, std::uint64_t seed) const override;

  /// N-group mixed population (PopulationModel): groups occupy consecutive
  /// index ranges; capacities are a stratified draw shuffled by the seed.
  [[nodiscard]] std::vector<double> group_utilities(
      std::span<const core::GroupShare> groups,
      std::uint64_t seed) const override;

  [[nodiscard]] const BandwidthDistribution& bandwidths() const noexcept {
    return bandwidths_;
  }
  [[nodiscard]] const SimulationConfig& base_config() const noexcept {
    return base_;
  }

 private:
  SimulationConfig base_;
  BandwidthDistribution bandwidths_;
};

}  // namespace dsa::swarming

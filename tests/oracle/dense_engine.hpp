// The dense round-model oracle: the seed implementation of the Sec. 4.3.1
// round model, which keeps all per-run state in n x n matrices refilled
// every round. The production engine (swarming/simulator.cpp) makes the same
// RNG draws and floating-point operations in the same order, so the tests
// and benches that link this library assert bitwise-identical outcomes
// against it. It lives outside src/ on purpose: nothing in the production
// libraries may reach it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "swarming/bandwidth.hpp"
#include "swarming/protocol.hpp"
#include "swarming/simulator.hpp"

namespace dsa::swarming::oracle {

/// simulate_rounds on the dense O(n^2)-per-round engine. Same contract and
/// validation as swarming::simulate_rounds; allocates fresh state per run.
SimulationOutcome simulate_rounds_dense(
    const std::vector<ProtocolSpec>& protocols,
    const std::vector<double>& capacities, const SimulationConfig& config,
    const BandwidthDistribution* churn_source = nullptr);

/// The EncounterModel half of SwarmingModel, run on the dense oracle: the
/// same protocol decoding and shuffled_capacities draw, so a PraEngine over
/// it must produce exactly the numbers a PraEngine over SwarmingModel does.
class DenseSwarmingModel final : public core::EncounterModel {
 public:
  /// `base` provides rounds / churn / knobs; its seed field is ignored.
  DenseSwarmingModel(SimulationConfig base, BandwidthDistribution bandwidths)
      : base_(std::move(base)), bandwidths_(std::move(bandwidths)) {}

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

 private:
  SimulationConfig base_;
  BandwidthDistribution bandwidths_;
};

}  // namespace dsa::swarming::oracle

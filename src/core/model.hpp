// The substrate interface the PRA quantification drives. A domain (P2P file
// swarming, gossip, ...) implements EncounterModel; the engine in pra.hpp
// only ever sees protocol ids, population splits, and seeds.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

namespace dsa::core {

/// A simulatable domain over a finite protocol space. Implementations must
/// be thread-safe for concurrent const calls and deterministic in `seed`.
class EncounterModel {
 public:
  virtual ~EncounterModel() = default;

  /// Number of protocols in the domain's design space.
  [[nodiscard]] virtual std::uint32_t protocol_count() const = 0;

  /// Human-readable description of a protocol id.
  [[nodiscard]] virtual std::string protocol_name(std::uint32_t id) const = 0;

  /// Mean peer utility when all `population` peers execute `protocol`.
  [[nodiscard]] virtual double homogeneous_utility(
      std::uint32_t protocol, std::size_t population,
      std::uint64_t seed) const = 0;

  /// Mean utilities (group A, group B) in a mixed population where
  /// `count_a` peers run `a` and `count_b` run `b`.
  [[nodiscard]] virtual std::pair<double, double> mixed_utilities(
      std::uint32_t a, std::uint32_t b, std::size_t count_a,
      std::size_t count_b, std::uint64_t seed) const = 0;
};

}  // namespace dsa::core

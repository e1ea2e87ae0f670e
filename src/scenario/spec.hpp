// Declarative experiment specs — the paper as a pipeline of experiments
// instead of hand-wired bench binaries.
//
// A spec is a strict JSON document naming one experiment kind, its output
// artifact, and a parameter set in which any value may be a grid (an array
// of values). Parsing validates every key against the kind's parameter
// table — type, range, allowed names — and rejects unknown or malformed
// keys with an error naming the file, line, and `$.params.key` path.
//
//   {
//     "scenario": "fig10-homogeneous",
//     "kind": "swarm",
//     "output": "results/scenario_fig10.csv",
//     "params": { "a": ["sorts", "random", "loyal", "bt", "birds"],
//                 "b": "same", "runs": 10, "seed": 500 }
//   }
//
// Kinds: sweep (full-space PRA quantification, sharded over protocol
// chunks), swarm (piece-level mixed swarms, Sec. 5), evolution (replicator
// dynamics), ess (evolutionary stability), search (heuristic hill climb),
// explore (bounded worst-case fault-schedule search, sharded over schedule
// ordinal chunks).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace dsa::scenario {

enum class Kind : std::uint8_t {
  kSweep,
  kSwarm,
  kEvolution,
  kEss,
  kSearch,
  kExplore,
};

[[nodiscard]] std::string to_string(Kind kind);

/// One parameter value. The alternative index doubles as the type tag in
/// fingerprints, so int 1 and double 1.0 hash differently.
using ParamValue = std::variant<std::int64_t, double, std::string>;

/// One spec parameter: a single value or a grid of values to sweep over.
/// Scalar params are 1-element axes; expansion takes the cartesian product
/// of all axes in spec order, last axis fastest.
struct Axis {
  std::string name;
  std::vector<ParamValue> values;

  [[nodiscard]] bool is_grid() const noexcept { return values.size() > 1; }
};

/// One job's resolved parameters: every axis pinned to a single value.
class ParamSet {
 public:
  void set(std::string name, ParamValue value);

  /// Typed lookups; throw std::logic_error when a parameter is absent or
  /// of the wrong type — spec validation guarantees neither happens for
  /// parameters in the kind's table, so a throw here is a programming bug.
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;

  [[nodiscard]] const std::vector<std::pair<std::string, ParamValue>>&
  entries() const noexcept {
    return entries_;
  }

 private:
  [[nodiscard]] const ParamValue& find(const std::string& name) const;
  std::vector<std::pair<std::string, ParamValue>> entries_;  // spec order
};

/// A fully validated scenario: defaults filled in, every value range- and
/// name-checked.
struct ScenarioSpec {
  std::string name;
  Kind kind = Kind::kSweep;
  std::filesystem::path output;
  /// Jobs the runner runs at once, its calling thread included; 0 =
  /// hardware concurrency. Not part of the fingerprint: results are
  /// thread-count independent.
  std::size_t threads = 0;
  /// Retries after a job's first failed attempt.
  std::size_t retries = 1;
  /// Sweep: protocols per job; explore: schedule ordinals per job (the
  /// sharding grain). Unused by the other kinds.
  std::size_t chunk = 256;
  /// Every parameter of the kind's table, grids preserved, spec order.
  std::vector<Axis> axes;

  /// Hash of everything that affects the numbers: kind, chunk, and every
  /// axis (name, value types, values). Excludes name/output/threads/retries,
  /// so renaming or re-homing a spec keeps its manifest compatible.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Every axis pinned to its first value: the parameters of a kind that
  /// takes scalars only (sweep, explore).
  [[nodiscard]] ParamSet scalar_params() const;
};

/// Parses and validates a spec. Throws util::json::ParseError on malformed
/// JSON, util::json::SchemaError naming the offending key path on schema
/// violations.
ScenarioSpec parse_scenario_file(const std::filesystem::path& path);
ScenarioSpec parse_scenario_text(std::string_view text,
                                 std::string_view origin = "<spec>");

/// Resolves a protocol name ("bt", "birds", "loyal", "sorts", "random") or
/// numeric design-space id. Throws std::invalid_argument on unknown names
/// or out-of-range ids.
std::uint32_t parse_protocol_token(const std::string& token);

/// Resolves a sweep protocol selection: "all", "stride:N" (every N-th id),
/// or a comma list of protocol tokens. Throws std::invalid_argument.
std::vector<std::uint32_t> parse_protocol_selection(const std::string& text);

/// Resolves a comma list of >= 2 protocol tokens (an evolution menu).
/// Throws std::invalid_argument.
std::vector<std::uint32_t> parse_protocol_menu(const std::string& text);

}  // namespace dsa::scenario

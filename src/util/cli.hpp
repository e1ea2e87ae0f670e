// Minimal command-line argument parser for the dsa_cli tool and other
// executables: one positional subcommand, optional positional operands
// (e.g. a spec file path), and --flag / --flag value options. No external
// dependencies, strict validation. HelpIndex holds the per-command usage
// text behind `dsa_cli help <command>`.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dsa::util {

/// Parsed command line: `prog subcommand spec.json --a 1 --b --c x`.
class CliArgs {
 public:
  /// Parses argv (excluding argv[0]). Flags start with "--"; a flag is
  /// boolean when followed by another flag or the end, valued otherwise.
  /// Bare tokens after the subcommand become positionals, except a token
  /// immediately following a flag, which binds as that flag's value until
  /// has() reads the flag as a switch (see there).
  /// Throws std::invalid_argument on malformed input (e.g. a duplicated
  /// flag).
  static CliArgs parse(int argc, const char* const* argv);

  /// The first non-flag token, if any ("pra", "swarm", ...).
  [[nodiscard]] const std::string& subcommand() const noexcept {
    return subcommand_;
  }

  /// Reads `flag` as a boolean switch: whether it was given. A token the
  /// parser bound after it becomes a positional again, at its original
  /// place, so `plan --jobs spec.json` reads like `plan spec.json --jobs`.
  /// Read switches before positionals: a switch that would shift a
  /// positional already asked for throws std::logic_error.
  [[nodiscard]] bool has(const std::string& flag) const;

  /// Value of a flag; std::nullopt when absent, throws std::invalid_argument
  /// when present but boolean.
  [[nodiscard]] std::optional<std::string> value(
      const std::string& flag) const;

  /// Typed accessors with defaults; throw std::invalid_argument on
  /// unparsable values.
  [[nodiscard]] std::string get(const std::string& flag,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& flag,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& flag,
                                  double fallback) const;

  /// Bare tokens after the subcommand, in order.
  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// Positional `i` (marks it consumed); `fallback` when absent.
  [[nodiscard]] std::string positional(std::size_t i,
                                       const std::string& fallback = "") const;

  /// Flags the caller never consumed — used to reject typos. Call after all
  /// get()/has() lookups; returns the unknown flag names.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

  /// Positionals the caller never read via positional() — commands that
  /// take none (or fewer than given) reject these as stray arguments.
  [[nodiscard]] std::vector<std::string> unconsumed_positionals() const;

 private:
  std::string subcommand_;
  // flag name (without "--") -> value ("" for boolean flags)
  mutable std::map<std::string, std::string> flags_;
  // flag name -> argv index of the bare token bound as its value
  mutable std::map<std::string, int> bound_at_;
  mutable std::vector<std::string> positionals_;
  mutable std::vector<int> positional_at_;  // argv index of each positional
  mutable std::map<std::string, bool> consumed_;
  mutable std::vector<bool> positional_consumed_;
  mutable std::size_t positionals_asked_ = 0;  // 1 + highest positional(i)
};

/// Help text for one subcommand: the one-line summary shown in the command
/// list plus the full usage block shown by `help <command>`.
struct CommandHelp {
  std::string name;
  std::string summary;
  std::string usage;
};

/// Lookup table over CommandHelp entries, preserving registration order.
class HelpIndex {
 public:
  explicit HelpIndex(std::vector<CommandHelp> commands);

  /// nullptr when the command is unknown.
  [[nodiscard]] const CommandHelp* find(const std::string& name) const;

  /// "  name    summary" lines, names aligned, registration order.
  [[nodiscard]] std::string command_list() const;

  [[nodiscard]] const std::vector<CommandHelp>& commands() const noexcept {
    return commands_;
  }

 private:
  std::vector<CommandHelp> commands_;
};

}  // namespace dsa::util

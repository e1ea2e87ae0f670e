// Environment-variable configuration helpers. Bench binaries use these to
// scale experiments between "quick" defaults (minutes on a laptop) and the
// paper-fidelity settings (DSA_FULL=1), without recompiling.
//
// Parsing is strict: a variable that is SET but invalid (unparsable,
// negative where a count is expected, or outside an allowed enum) throws
// std::runtime_error naming the variable and the offending value, instead
// of silently falling back — a typo'd DSA_THREADS=1O must not quietly run
// a different experiment. Fallbacks apply only when unset or empty.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>

namespace dsa::util {

/// Returns the value of `name`, or `fallback` if unset/empty.
std::string env_string(const char* name, const std::string& fallback);

/// Returns `name` parsed as a non-negative integer, or `fallback` if
/// unset/empty. Throws std::runtime_error (with the offending value) when
/// set but unparsable, negative, or followed by trailing garbage.
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Returns `name` parsed as a double, or `fallback` if unset/empty. Throws
/// std::runtime_error when set but unparsable or trailed by garbage.
double env_double(const char* name, double fallback);

/// True when the variable is set to something other than "0", "false", "".
bool env_flag(const char* name);

/// Returns the value of `name` when it is one of `allowed`, `fallback`
/// when unset/empty, and throws std::runtime_error (listing the choices)
/// otherwise. Used for e.g. DSA_RECORD=off|rounds|full.
std::string env_enum(const char* name, const std::string& fallback,
                     std::initializer_list<const char*> allowed);

}  // namespace dsa::util

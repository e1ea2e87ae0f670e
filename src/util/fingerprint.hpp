// Identity helpers for resumable and cached results (the scenario runner's
// manifests and provenance sidecars, the serve daemon's cache).
//
// A Fingerprint chains hash64 over every option that affects a
// computation's numbers; the result is baked into manifest filenames and
// sidecars so a resume or a reuse can never pick up incompatible data.
// exact_number() is the companion serializer: values that feed back into a
// resumed computation must round-trip doubles exactly, which the 10-digit
// display precision of format_number cannot do.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace dsa::util {

/// Order-sensitive hash accumulator: h = hash64(h ^ v) per ingredient,
/// seeded with hash64(salt).
class Fingerprint {
 public:
  explicit Fingerprint(std::uint64_t salt = 0);

  Fingerprint& mix(std::uint64_t v);
  /// Hashes length then bytes, so "ab","c" != "a","bc".
  Fingerprint& mix(std::string_view text);
  /// Mixes the raw bit pattern (distinguishes -0.0 from 0.0).
  Fingerprint& mix_double(double v);

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  /// 16 lowercase hex digits, zero-padded.
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_;
};

/// Shortest decimal string that round-trips `value` exactly
/// (std::to_chars); use for any number that feeds back into a resumed
/// computation.
std::string exact_number(double value);

}  // namespace dsa::util

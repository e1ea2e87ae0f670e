#include "util/fingerprint.hpp"

#include <bit>
#include <charconv>
#include <cstdio>

#include "util/rng.hpp"

namespace dsa::util {

Fingerprint::Fingerprint(std::uint64_t salt) : h_(hash64(salt)) {}

Fingerprint& Fingerprint::mix(std::uint64_t v) {
  h_ = hash64(h_ ^ v);
  return *this;
}

Fingerprint& Fingerprint::mix(std::string_view text) {
  mix(static_cast<std::uint64_t>(text.size()));
  for (unsigned char c : text) mix(static_cast<std::uint64_t>(c));
  return *this;
}

Fingerprint& Fingerprint::mix_double(double v) {
  return mix(std::bit_cast<std::uint64_t>(v));
}

std::string Fingerprint::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h_));
  return std::string(buffer, 16);
}

std::string exact_number(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace dsa::util

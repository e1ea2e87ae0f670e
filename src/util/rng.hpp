// Deterministic pseudo-random number generation for simulations.
//
// All experiments in this repository must be reproducible bit-for-bit
// regardless of thread scheduling, so every unit of simulation work derives
// its own Rng from a master seed plus a stable work-item identifier (see
// Rng::derive). The generator is xoshiro256** seeded via splitmix64 — fast,
// high quality, and independent of the standard library's unspecified
// distribution implementations.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace dsa::util {

/// splitmix64 step; used for seeding and for hash-combining seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of a single value (splitmix64 finalizer).
constexpr std::uint64_t hash64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// xoshiro256** PRNG with helpers for the distributions the simulators need.
/// Satisfies UniformRandomBitGenerator, so it also works with <algorithm>.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64(s);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Precondition: n > 0.
  /// Uses Lemire's unbiased multiply-shift rejection method.
  std::uint64_t below(std::uint64_t n) noexcept {
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept { return uniform() < p; }

  /// Derives an independent generator for a named work item. Streams for
  /// distinct (a, b, c) tuples are statistically independent, so parallel
  /// tournament encounters can each own a private stream.
  [[nodiscard]] Rng derive(std::uint64_t a, std::uint64_t b = 0,
                           std::uint64_t c = 0) const noexcept {
    std::uint64_t mix = state_[0] ^ rotl(state_[2], 13);
    mix ^= hash64(a) + 0x9e3779b97f4a7c15ULL;
    mix ^= hash64(b) * 0xff51afd7ed558ccdULL;
    mix ^= hash64(c) * 0xc4ceb9fe1a85ec53ULL;
    return Rng(hash64(mix));
  }

  /// Fisher–Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) noexcept {
    const auto n = c.size();
    if (n < 2) return;
    for (std::size_t i = n - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i + 1));
      using std::swap;
      swap(c[i], c[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace dsa::util

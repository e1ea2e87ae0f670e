// Thread-sharded metrics registry: counters, gauges, and distributions.
//
// Write path: each thread gets its own shard (created on first touch, owned
// by the registry), and a counter add or distribution observe is a handful
// of relaxed atomic RMWs on that shard — no locks, no cross-thread
// cache-line traffic. Gauges are last-write-wins process-global values (set
// rarely, read at snapshot time), so they live in the registry directly.
//
// Read path: snapshot() takes the registry mutex, sums every shard, and
// returns a plain-value MetricsSnapshot. Shards are never destroyed before
// the registry is, so totals survive thread exit (a pool worker's counts
// stay merged after the pool is torn down).
//
// A distribution is a log-bucket quantile sketch (DDSketch-style mapping):
// a value's bucket index is floor-of-log with base
// gamma = (1 + alpha) / (1 - alpha), so every quantile reported for a value
// inside [kDistributionMin, kDistributionMax] is within relative error
// alpha = 1% of the exact-rank answer. Bucket counts are integer adds, so a
// snapshot's buckets are bitwise-identical however the stream was sharded
// across threads; randomized compactors (KLL) or marker interpolation (P²)
// cannot give that. The same cells carry sum, sum of squares, min and max:
// min and max are exact, mean and variance come from floating sums and may
// differ in the last ulp across shard merge orders.
//
// Handles (Counter/Gauge/Distribution) are cheap POD-ish values; register
// once (name-idempotent) and keep them next to the hot loop. All operations
// are safe on a default-constructed handle (they no-op), so instrumented
// code can hoist handles unconditionally. Distribution::observe also checks
// obs::enabled(), so a hot loop pays one predictable branch when
// observability is off.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dsa::obs {

class Registry;

/// Relative-error bound of every distribution quantile.
inline constexpr double kDistributionAlpha = 0.01;
/// |v| below this lands in the zero bucket.
inline constexpr double kDistributionMin = 1e-6;
/// |v| above this clamps into the top magnitude bucket.
inline constexpr double kDistributionMax = 1e9;

/// Monotone event counter (uint64 adds).
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta) const noexcept;
  void increment() const noexcept { add(1); }

 private:
  friend class Registry;
  Counter(Registry* registry, std::size_t id) : registry_(registry), id_(id) {}
  Registry* registry_ = nullptr;
  std::size_t id_ = 0;
};

/// Last-write-wins double, plus an accumulate form for double-valued totals
/// (e.g. KB lost) that have no integral counter representation.
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const noexcept;
  void add(double delta) const noexcept;

 private:
  friend class Registry;
  Gauge(Registry* registry, std::size_t id) : registry_(registry), id_(id) {}
  Registry* registry_ = nullptr;
  std::size_t id_ = 0;
};

/// Streaming value distribution (quantile sketch plus moments). observe()
/// no-ops when default-constructed, when observability is disabled, and
/// for NaN (it carries no rank).
class Distribution {
 public:
  Distribution() = default;
  void observe(double value) const noexcept;

 private:
  friend class Registry;
  Distribution(Registry* registry, std::size_t id)
      : registry_(registry), id_(id) {}
  Registry* registry_ = nullptr;
  std::size_t id_ = 0;
};

/// Index of the bucket covering the q-th quantile in a cumulative walk over
/// `buckets` (the first whose cumulative count reaches q * total). `total`
/// must be the sum of `buckets`. Skips empty buckets; q is clamped to
/// [0, 1]. Returns buckets.size() when total == 0.
[[nodiscard]] std::size_t quantile_bucket(
    std::span<const std::uint64_t> buckets, std::uint64_t total, double q);

/// Point-in-time merged view of every metric; plain values, safe to keep.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct DistributionValue {
    std::string name;
    std::uint64_t zero_count = 0;         // |v| < kDistributionMin
    std::vector<std::uint64_t> negative;  // magnitude buckets, low = small
    std::vector<std::uint64_t> positive;
    double min = 0.0;  // 0 when empty
    double max = 0.0;
    double sum = 0.0;
    double sum_squares = 0.0;

    [[nodiscard]] std::uint64_t count() const noexcept;

    /// Quantile estimate over the full signed stream: negative mass
    /// (largest magnitude first), then zeros (reported as 0.0), then
    /// positive mass. Within relative error kDistributionAlpha for values
    /// inside [kDistributionMin, kDistributionMax]; 0 when empty.
    [[nodiscard]] double quantile(double q) const;

    [[nodiscard]] double mean() const noexcept;
    /// Population variance from (sum, sum_squares); clamped at 0 so float
    /// cancellation never reports a negative spread.
    [[nodiscard]] double variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<DistributionValue> distributions;

  /// Value of a named counter; 0 when absent (convenient in tests/reports).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  /// Value of a named gauge; 0.0 when absent.
  [[nodiscard]] double gauge_value(std::string_view name) const;

  /// One JSON object per line: {"type":"counter","name":...,"value":...},
  /// {"type":"gauge",...}, and {"type":"distribution","name":...} followed
  /// by the distribution_summary fields.
  [[nodiscard]] std::string to_jsonl() const;

  /// to_jsonl() written via util::atomic_write (never a torn file).
  void save_jsonl(const std::filesystem::path& path) const;
};

/// The one list of distribution summary fields, shared by the metrics JSONL
/// and the telemetry `sketches` section, in this order: count, p50, p90,
/// p99, min, max, mean, stddev.
[[nodiscard]] std::vector<std::pair<const char*, double>> distribution_summary(
    const MetricsSnapshot::DistributionValue& distribution);

/// The registry. Most code uses the process-wide `global()` instance;
/// independent instances exist for tests.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& global();

  /// Registers (or finds) a metric by name. Idempotent: the same name
  /// returns a handle to the same metric.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Distribution distribution(std::string_view name);

  /// Merged totals across all shards, metrics in registration order.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every metric (definitions stay registered). Only safe when no
  /// other thread is writing concurrently — a test/CLI-epilogue operation.
  void reset();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Distribution;

  struct Shard;
  struct Impl;
  Shard& local_shard();

  Impl* impl_;
  std::uint64_t instance_id_;
};

}  // namespace dsa::obs

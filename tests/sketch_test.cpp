// Registry distributions (obs/metrics): quantile accuracy against exact
// sorted-rank answers, shard-count determinism, reset and disabled handles,
// moments, and the one error bound every exporter (metrics JSONL, telemetry
// `sketches` section) reports.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "stats/descriptive.hpp"
#include "util/json.hpp"

namespace {

using namespace dsa;
using Value = obs::MetricsSnapshot::DistributionValue;

// --- helpers --------------------------------------------------------------

/// Deterministic LCG (same constants as PCG's underlying generator) so the
/// accuracy streams are identical on every platform.
struct Lcg {
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  double next_unit() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  }
  std::uint64_t state;
};

/// The exact-rank answer the distribution's cumulative walk targets:
/// element of rank ceil(q*n) (1-indexed), i.e. the value whose cumulative
/// count first reaches q*n.
double exact_quantile(const std::vector<double>& sorted, double q) {
  const double target = q * static_cast<double>(sorted.size());
  std::size_t rank =
      target <= 1.0 ? 1 : static_cast<std::size_t>(std::ceil(target));
  rank = std::min(rank, sorted.size());
  return sorted[rank - 1];
}

// --- shared bucket walk ---------------------------------------------------

TEST(QuantileBucket, CumulativeWalkSkipsEmptyBuckets) {
  const std::vector<std::uint64_t> buckets = {0, 3, 0, 2};
  EXPECT_EQ(obs::quantile_bucket(buckets, 5, 0.0), 1u);
  EXPECT_EQ(obs::quantile_bucket(buckets, 5, 0.6), 1u);
  EXPECT_EQ(obs::quantile_bucket(buckets, 5, 0.61), 3u);
  EXPECT_EQ(obs::quantile_bucket(buckets, 5, 1.0), 3u);
  // Empty distribution: one-past-the-end sentinel.
  EXPECT_EQ(obs::quantile_bucket(buckets, 0, 0.5), buckets.size());
}

// --- snapshot math (no observe path, works even when compiled out) --------

TEST(MomentsSnapshot, DerivedStatisticsAndMerge) {
  // Values {1, 3} in the first positive buckets' counts.
  Value a;
  a.positive = {2, 0};
  a.negative = {0, 0};
  a.min = 1.0;
  a.max = 3.0;
  a.sum = 4.0;
  a.sum_squares = 10.0;
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.variance(), 1.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 1.0);

  const Value empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.variance(), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

#if DSA_OBS_COMPILED_IN
  // The registry's snapshot merges per-thread moments: an exited thread's
  // extrema combine with the live thread's, and a thread that never
  // observed contributes nothing.
  obs::set_enabled(true);
  obs::Registry registry;
  const obs::Distribution merged = registry.distribution("m");
  std::thread([&merged] {
    merged.observe(1.0);
    merged.observe(3.0);
  }).join();
  std::thread([&registry] { registry.counter("idle").increment(); }).join();
  merged.observe(-2.0);
  obs::set_enabled(false);
  const Value snap = registry.snapshot().distributions.at(0);
  EXPECT_EQ(snap.count(), 3u);
  EXPECT_DOUBLE_EQ(snap.min, -2.0);
  EXPECT_DOUBLE_EQ(snap.max, 3.0);
  EXPECT_DOUBLE_EQ(snap.sum, 2.0);
  EXPECT_DOUBLE_EQ(snap.sum_squares, 14.0);
#endif
}

#if DSA_OBS_COMPILED_IN

// --- observe path (needs the runtime switch) ------------------------------

/// Restores the global obs switch so test order never matters.
struct ObsStateGuard {
  ObsStateGuard() { obs::set_enabled(true); }
  ~ObsStateGuard() { obs::set_enabled(false); }
};

/// Observes `values` into a fresh registry and checks every reported
/// quantile against the exact sorted-rank answer, within the relative error
/// bound. The 1.0001 factor absorbs float rounding in the log-bucket index
/// at bucket boundaries.
void expect_quantiles_within_alpha(const std::vector<double>& values) {
  ObsStateGuard guard;
  obs::Registry registry;
  const obs::Distribution distribution = registry.distribution("acc");
  for (double v : values) distribution.observe(v);
  const Value snap = registry.snapshot().distributions.at(0);
  ASSERT_EQ(snap.count(), values.size());

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const double exact = exact_quantile(sorted, q);
    const double estimate = snap.quantile(q);
    EXPECT_LE(std::abs(estimate - exact),
              obs::kDistributionAlpha * 1.0001 * exact + 1e-9)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(SketchAccuracy, UniformStreamWithinRelativeError) {
  Lcg rng(42);
  std::vector<double> values;
  values.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    values.push_back(1.0 + 999.0 * rng.next_unit());
  }
  expect_quantiles_within_alpha(values);
}

TEST(SketchAccuracy, HeavyTailedParetoStreamWithinRelativeError) {
  Lcg rng(7);
  std::vector<double> values;
  values.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    // Pareto(xm = 1, a = 1.5) by inverse transform; the tail stresses the
    // log-bucket mapping far from the minimum value.
    const double u = rng.next_unit();
    values.push_back(std::pow(1.0 - u * 0.9999, -1.0 / 1.5));
  }
  expect_quantiles_within_alpha(values);
}

TEST(SketchAccuracy, AdversarialSortedStreamsWithinRelativeError) {
  // Monotone insertion order is the classic worst case for interpolating
  // sketches (P² markers); the log-bucket mapping must not care.
  std::vector<double> ascending;
  ascending.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    ascending.push_back(0.5 + static_cast<double>(i));
  }
  expect_quantiles_within_alpha(ascending);
  std::vector<double> descending(ascending.rbegin(), ascending.rend());
  expect_quantiles_within_alpha(descending);
}

TEST(SketchAccuracy, SignedStreamOrdersNegativeZeroPositive) {
  ObsStateGuard guard;
  obs::Registry registry;
  const obs::Distribution distribution = registry.distribution("signed");
  for (int i = 1; i <= 10; ++i) {
    distribution.observe(static_cast<double>(-i));
    distribution.observe(static_cast<double>(i));
  }
  distribution.observe(0.0);
  const Value snap = registry.snapshot().distributions.at(0);
  EXPECT_EQ(snap.count(), 21u);
  EXPECT_LT(snap.quantile(0.02), -9.0);  // most negative magnitude first
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
  EXPECT_GT(snap.quantile(0.98), 9.0);
}

TEST(SketchInsert, EdgeValuesLandWhereDocumented) {
  ObsStateGuard guard;
  obs::Registry registry;
  const obs::Distribution distribution = registry.distribution("edges");
  distribution.observe(0.0);
  distribution.observe(1e-9);  // below kDistributionMin: zero bucket
  distribution.observe(-1e-9);
  distribution.observe(1e12);  // above kDistributionMax: clamps to the top
  distribution.observe(std::nan(""));  // carries no rank: dropped
  const Value snap = registry.snapshot().distributions.at(0);
  EXPECT_EQ(snap.count(), 4u);
  EXPECT_EQ(snap.zero_count, 3u);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
  const double top = snap.quantile(1.0);
  EXPECT_TRUE(std::isfinite(top));
  EXPECT_GT(top, 1e8);
  // Moments see the exact values, NaN excluded.
  EXPECT_DOUBLE_EQ(snap.min, -1e-9);
  EXPECT_DOUBLE_EQ(snap.max, 1e12);
}

TEST(SketchRegistry, ShardedInsertsMatchSingleThreadExactly) {
  ObsStateGuard guard;
  Lcg rng(99);
  std::vector<double> values;
  values.reserve(8000);
  for (int i = 0; i < 8000; ++i) {
    values.push_back(0.01 + 100.0 * rng.next_unit());
  }

  obs::Registry sharded;
  {
    const obs::Distribution distribution = sharded.distribution("s");
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < values.size(); i += 4) {
          distribution.observe(values[i]);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }

  obs::Registry single;
  {
    const obs::Distribution distribution = single.distribution("s");
    for (double v : values) distribution.observe(v);
  }

  const Value a = sharded.snapshot().distributions.at(0);
  const Value b = single.snapshot().distributions.at(0);
  // Bucket counts are integer adds: 4-thread and 1-thread streams must be
  // IDENTICAL, not just close — and so is every quantile.
  EXPECT_EQ(a.zero_count, b.zero_count);
  EXPECT_EQ(a.positive, b.positive);
  EXPECT_EQ(a.negative, b.negative);
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
  }
  // Moments: count/min/max are order-independent; the float sums are only
  // near-equal across shard merge orders (documented contract).
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_NEAR(a.mean(), b.mean(), 1e-9 * std::abs(b.mean()));
  EXPECT_NEAR(a.stddev(), b.stddev(), 1e-7 * std::abs(b.stddev()));
}

TEST(SketchRegistry, ResetZeroesCountsButKeepsRegistrations) {
  ObsStateGuard guard;
  obs::Registry registry;
  const obs::Distribution distribution = registry.distribution("r");
  distribution.observe(3.0);
  registry.reset();
  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.distributions.size(), 1u);
  EXPECT_EQ(snap.distributions[0].name, "r");
  EXPECT_EQ(snap.distributions[0].count(), 0u);
  EXPECT_DOUBLE_EQ(snap.distributions[0].min, 0.0);
  EXPECT_DOUBLE_EQ(snap.distributions[0].sum, 0.0);
  // Handles stay live after reset, and the extrema start afresh.
  distribution.observe(4.0);
  const Value after = registry.snapshot().distributions.at(0);
  EXPECT_EQ(after.count(), 1u);
  EXPECT_DOUBLE_EQ(after.min, 4.0);
  EXPECT_DOUBLE_EQ(after.max, 4.0);
}

TEST(SketchRegistry, DisabledOrDetachedHandlesRecordNothing) {
  obs::Registry registry;
  const obs::Distribution distribution = registry.distribution("off");
  obs::set_enabled(false);
  distribution.observe(1.0);
  EXPECT_EQ(registry.snapshot().distributions.at(0).count(), 0u);
  // Default-constructed handles are inert even when obs is on.
  ObsStateGuard guard;
  const obs::Distribution detached;
  detached.observe(1.0);
}

TEST(MomentsAccumulator, ExactExtremaAndNearMeanVariance) {
  ObsStateGuard guard;
  obs::Registry registry;
  const obs::Distribution distribution = registry.distribution("m");
  double sum = 0.0, sum_squares = 0.0;
  Lcg rng(11);
  double min = 1e300, max = -1e300;
  for (int i = 0; i < 2000; ++i) {
    const double v = 10.0 * (rng.next_unit() - 0.3);
    distribution.observe(v);
    sum += v;
    sum_squares += v * v;
    min = std::min(min, v);
    max = std::max(max, v);
  }
  const Value snap = registry.snapshot().distributions.at(0);
  EXPECT_EQ(snap.count(), 2000u);
  EXPECT_DOUBLE_EQ(snap.min, min);
  EXPECT_DOUBLE_EQ(snap.max, max);
  EXPECT_NEAR(snap.sum, sum, 1e-9 * std::abs(sum));
  const double mean = sum / 2000.0;
  EXPECT_NEAR(snap.variance(), sum_squares / 2000.0 - mean * mean, 1e-9);
}

// --- one error bound on every exporter ------------------------------------

TEST(DistributionExport, JsonlAndTelemetryAgreeWithinTheErrorBound) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("dsa_sketch_export_" +
                        std::to_string(static_cast<long long>(::getpid())));
  fs::remove_all(dir);

  // A known latency stream: log-uniform over [0.2, 11] ms. 1001 values put
  // p50/p90/p99 on exact order statistics for both the sketch's rank rule
  // and stats::percentile's interpolation (q * (n - 1) is an integer).
  Lcg rng(2011);
  std::vector<double> latencies;
  for (int i = 0; i < 1001; ++i) {
    latencies.push_back(0.2 * std::exp(4.0 * rng.next_unit()));
  }
  const std::string name = "sketch_test.latency_ms";

  obs::Telemetry telemetry;
  obs::TelemetryOptions options;
  options.enabled = true;
  options.interval_ms = 3'600'000;  // samples are driven explicitly
  options.dir = dir;
  telemetry.configure(options);
  obs::TelemetryRun run =
      telemetry.begin_run({.name = "export", .kind = "test"});
  {
    ObsStateGuard guard;
    const obs::Distribution distribution =
        obs::Registry::global().distribution(name);
    for (double v : latencies) distribution.observe(v);
  }
  telemetry.sample_now();
  const obs::StatusFile status =
      obs::load_status_file(dir / "export.status.json");
  const std::string jsonl = obs::Registry::global().snapshot().to_jsonl();
  run.finish(true);
  telemetry.configure(obs::TelemetryOptions{});
  obs::set_enabled(false);
  fs::remove_all(dir);

  const auto heartbeat = status.sketches.find(name);
  ASSERT_NE(heartbeat, status.sketches.end());
  const util::json::Value* line = nullptr;
  std::istringstream lines(jsonl);
  std::string text;
  util::json::Value parsed;
  while (std::getline(lines, text)) {
    if (text.find("\"name\":\"" + name + "\"") == std::string::npos) continue;
    parsed = util::json::parse(text);
    line = &parsed;
  }
  ASSERT_NE(line, nullptr) << jsonl;
  EXPECT_EQ(line->find("type")->text, "distribution");
  EXPECT_EQ(line->find("count")->number, 1001.0);
  EXPECT_EQ(heartbeat->second.at("count"), 1001.0);

  for (const auto& [label, q] :
       {std::pair{"p50", 0.5}, std::pair{"p90", 0.9}, std::pair{"p99", 0.99}}) {
    const double exported = line->find(label)->number;
    EXPECT_EQ(heartbeat->second.at(label), exported) << label;
    const double exact = stats::percentile(latencies, q);
    EXPECT_LE(std::abs(exported - exact),
              obs::kDistributionAlpha * 1.0001 * exact)
        << label << " exact=" << exact << " exported=" << exported;
  }
  for (const char* moment : {"min", "max", "mean", "stddev"}) {
    EXPECT_EQ(heartbeat->second.at(moment), line->find(moment)->number)
        << moment;
  }
  EXPECT_EQ(line->find("min")->number,
            *std::min_element(latencies.begin(), latencies.end()));
  EXPECT_EQ(line->find("max")->number,
            *std::max_element(latencies.begin(), latencies.end()));
}

#endif  // DSA_OBS_COMPILED_IN

}  // namespace

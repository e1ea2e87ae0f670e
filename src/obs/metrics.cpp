#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "obs/json_util.hpp"
#include "obs/obs.hpp"
#include "util/csv.hpp"
#include "util/fingerprint.hpp"
#include "util/fs.hpp"

namespace dsa::obs {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;
constexpr double kInfinity = std::numeric_limits<double>::infinity();

constexpr double kGamma =
    (1.0 + kDistributionAlpha) / (1.0 - kDistributionAlpha);

double log_gamma() {
  static const double value = std::log(kGamma);
  return value;
}

/// Number of log-spaced magnitude buckets covering
/// [kDistributionMin, kDistributionMax].
std::size_t magnitude_buckets() {
  static const std::size_t value =
      static_cast<std::size_t>(std::ceil(
          std::log(kDistributionMax / kDistributionMin) / log_gamma())) +
      1;
  return value;
}

/// Magnitude bucket index for |v| >= kDistributionMin: bucket i covers
/// (min·gamma^(i-1), min·gamma^i], clamped into the top bucket above
/// kDistributionMax.
std::size_t magnitude_bucket(double magnitude) {
  const std::size_t n = magnitude_buckets();
  const double index =
      std::ceil(std::log(magnitude / kDistributionMin) / log_gamma());
  if (index <= 0.0) return 0;
  if (index >= static_cast<double>(n - 1)) return n - 1;
  return static_cast<std::size_t>(index);
}

/// Midpoint representative of magnitude bucket i: within alpha of every
/// value the bucket covers.
double bucket_representative(std::size_t index) {
  return kDistributionMin * 2.0 *
         std::pow(kGamma, static_cast<double>(index)) / (kGamma + 1.0);
}

// Lock-free double accumulate / min / max on bit-cast atomic cells (doubles
// have no atomic fetch_add on every target).
void atomic_add_double(std::atomic<std::uint64_t>& bits, double delta) {
  std::uint64_t expected = bits.load(kRelaxed);
  while (!bits.compare_exchange_weak(
      expected,
      std::bit_cast<std::uint64_t>(std::bit_cast<double>(expected) + delta),
      kRelaxed, kRelaxed)) {
  }
}
void atomic_min_double(std::atomic<std::uint64_t>& bits, double value) {
  std::uint64_t expected = bits.load(kRelaxed);
  while (value < std::bit_cast<double>(expected) &&
         !bits.compare_exchange_weak(expected,
                                     std::bit_cast<std::uint64_t>(value),
                                     kRelaxed, kRelaxed)) {
  }
}
void atomic_max_double(std::atomic<std::uint64_t>& bits, double value) {
  std::uint64_t expected = bits.load(kRelaxed);
  while (value > std::bit_cast<double>(expected) &&
         !bits.compare_exchange_weak(expected,
                                     std::bit_cast<std::uint64_t>(value),
                                     kRelaxed, kRelaxed)) {
  }
}

// Registry identity for the thread-local shard cache. Instance ids are
// never reused, so a cache entry for a destroyed registry can never alias a
// newly constructed one that happens to land at the same address.
std::atomic<std::uint64_t> g_next_instance_id{1};

}  // namespace

// One thread's private slice of every sharded metric. Only the owning
// thread grows or writes a shard; snapshot() reads it under the registry
// mutex (growth also holds the mutex, so the deque structure is stable
// whenever another thread looks at it — the relaxed atomic cells are the
// only concurrently-touched state).
struct Registry::Shard {
  struct DistributionCells {
    // Bucket layout: [0] zero, [1 .. n] positive, [n+1 .. 2n] negative.
    DistributionCells()
        : buckets(std::make_unique<std::atomic<std::uint64_t>[]>(
              1 + 2 * magnitude_buckets())) {
      clear();
    }
    void clear() {
      for (std::size_t i = 0; i < 1 + 2 * magnitude_buckets(); ++i) {
        buckets[i].store(0, kRelaxed);
      }
      sum_bits.store(0, kRelaxed);
      sum_squares_bits.store(0, kRelaxed);
      min_bits.store(std::bit_cast<std::uint64_t>(kInfinity), kRelaxed);
      max_bits.store(std::bit_cast<std::uint64_t>(-kInfinity), kRelaxed);
    }
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<std::uint64_t> sum_bits{0};
    std::atomic<std::uint64_t> sum_squares_bits{0};
    std::atomic<std::uint64_t> min_bits{0};
    std::atomic<std::uint64_t> max_bits{0};
  };

  std::deque<std::atomic<std::uint64_t>> counters;
  std::deque<DistributionCells> distributions;
};

struct Registry::Impl {
  mutable std::mutex mutex;

  std::vector<std::string> counter_names;
  std::unordered_map<std::string, std::size_t> counter_ids;

  std::vector<std::string> gauge_names;
  std::unordered_map<std::string, std::size_t> gauge_ids;
  std::vector<double> gauge_values;  // cold path: guarded by mutex

  std::vector<std::string> distribution_names;
  std::unordered_map<std::string, std::size_t> distribution_ids;

  std::vector<std::unique_ptr<Shard>> shards;
};

Registry::Registry()
    : impl_(new Impl), instance_id_(g_next_instance_id.fetch_add(1)) {}

Registry::~Registry() { delete impl_; }

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Registry::Shard& Registry::local_shard() {
  thread_local std::vector<std::pair<std::uint64_t, Shard*>> cache;
  for (const auto& [id, shard] : cache) {
    if (id == instance_id_) return *shard;
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->shards.push_back(std::make_unique<Shard>());
  Shard* shard = impl_->shards.back().get();
  cache.emplace_back(instance_id_, shard);
  return *shard;
}

namespace {
/// Name-idempotent id lookup shared by the three metric kinds.
std::size_t register_name(std::vector<std::string>& names,
                          std::unordered_map<std::string, std::size_t>& ids,
                          std::string_view name) {
  auto [it, inserted] = ids.try_emplace(std::string(name), names.size());
  if (inserted) names.emplace_back(name);
  return it->second;
}
}  // namespace

Counter Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return Counter(this,
                 register_name(impl_->counter_names, impl_->counter_ids, name));
}

Gauge Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const std::size_t id =
      register_name(impl_->gauge_names, impl_->gauge_ids, name);
  impl_->gauge_values.resize(impl_->gauge_names.size(), 0.0);
  return Gauge(this, id);
}

Distribution Registry::distribution(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return Distribution(this, register_name(impl_->distribution_names,
                                          impl_->distribution_ids, name));
}

void Counter::add(std::uint64_t delta) const noexcept {
  if (registry_ == nullptr || delta == 0) return;
  Registry::Shard& shard = registry_->local_shard();
  if (id_ >= shard.counters.size()) {
    // First touch of this metric on this thread: grow under the registry
    // mutex so snapshot() never races the deque's structure.
    std::lock_guard<std::mutex> lock(registry_->impl_->mutex);
    while (shard.counters.size() <= id_) shard.counters.emplace_back(0);
  }
  shard.counters[id_].fetch_add(delta, kRelaxed);
}

void Gauge::set(double value) const noexcept {
  if (registry_ == nullptr) return;
  std::lock_guard<std::mutex> lock(registry_->impl_->mutex);
  registry_->impl_->gauge_values[id_] = value;
}

void Gauge::add(double delta) const noexcept {
  if (registry_ == nullptr) return;
  std::lock_guard<std::mutex> lock(registry_->impl_->mutex);
  registry_->impl_->gauge_values[id_] += delta;
}

void Distribution::observe(double value) const noexcept {
  if (registry_ == nullptr || !enabled() || std::isnan(value)) return;
  Registry::Shard& shard = registry_->local_shard();
  if (id_ >= shard.distributions.size()) {
    std::lock_guard<std::mutex> lock(registry_->impl_->mutex);
    while (shard.distributions.size() <= id_) {
      shard.distributions.emplace_back();
    }
  }
  Registry::Shard::DistributionCells& cells = shard.distributions[id_];
  const double magnitude = std::abs(value);
  std::size_t slot = 0;
  if (magnitude >= kDistributionMin) {
    const std::size_t bucket = magnitude_bucket(magnitude);
    slot = value > 0.0 ? 1 + bucket : 1 + magnitude_buckets() + bucket;
  }
  cells.buckets[slot].fetch_add(1, kRelaxed);
  atomic_add_double(cells.sum_bits, value);
  atomic_add_double(cells.sum_squares_bits, value * value);
  atomic_min_double(cells.min_bits, value);
  atomic_max_double(cells.max_bits, value);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mutex);

  snap.counters.resize(impl_->counter_names.size());
  for (std::size_t i = 0; i < impl_->counter_names.size(); ++i) {
    snap.counters[i].name = impl_->counter_names[i];
  }
  snap.gauges.resize(impl_->gauge_names.size());
  for (std::size_t i = 0; i < impl_->gauge_names.size(); ++i) {
    snap.gauges[i].name = impl_->gauge_names[i];
    snap.gauges[i].value = impl_->gauge_values[i];
  }
  const std::size_t n = magnitude_buckets();
  snap.distributions.resize(impl_->distribution_names.size());
  for (std::size_t i = 0; i < impl_->distribution_names.size(); ++i) {
    auto& dist = snap.distributions[i];
    dist.name = impl_->distribution_names[i];
    dist.negative.assign(n, 0);
    dist.positive.assign(n, 0);
    dist.min = kInfinity;
    dist.max = -kInfinity;
  }

  for (const auto& shard : impl_->shards) {
    for (std::size_t i = 0; i < shard->counters.size(); ++i) {
      snap.counters[i].value += shard->counters[i].load(kRelaxed);
    }
    for (std::size_t i = 0; i < shard->distributions.size(); ++i) {
      const auto& cells = shard->distributions[i];
      auto& dist = snap.distributions[i];
      dist.zero_count += cells.buckets[0].load(kRelaxed);
      for (std::size_t b = 0; b < n; ++b) {
        dist.positive[b] += cells.buckets[1 + b].load(kRelaxed);
        dist.negative[b] += cells.buckets[1 + n + b].load(kRelaxed);
      }
      dist.sum += std::bit_cast<double>(cells.sum_bits.load(kRelaxed));
      dist.sum_squares +=
          std::bit_cast<double>(cells.sum_squares_bits.load(kRelaxed));
      dist.min = std::min(
          dist.min, std::bit_cast<double>(cells.min_bits.load(kRelaxed)));
      dist.max = std::max(
          dist.max, std::bit_cast<double>(cells.max_bits.load(kRelaxed)));
    }
  }
  for (auto& dist : snap.distributions) {
    if (dist.count() == 0) {
      dist.min = 0.0;
      dist.max = 0.0;
    }
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& shard : impl_->shards) {
    for (auto& cell : shard->counters) cell.store(0, kRelaxed);
    for (auto& cells : shard->distributions) cells.clear();
  }
  std::fill(impl_->gauge_values.begin(), impl_->gauge_values.end(), 0.0);
}

std::size_t quantile_bucket(std::span<const std::uint64_t> buckets,
                            std::uint64_t total, double q) {
  if (total == 0) return buckets.size();
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    cumulative += static_cast<double>(buckets[i]);
    if (cumulative >= target) return i;
  }
  return buckets.size();
}

std::uint64_t MetricsSnapshot::DistributionValue::count() const noexcept {
  std::uint64_t total = zero_count;
  for (std::uint64_t c : negative) total += c;
  for (std::uint64_t c : positive) total += c;
  return total;
}

double MetricsSnapshot::DistributionValue::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  // Signed ordering: negative magnitudes (largest first), the zero bucket,
  // then positive magnitudes ascending.
  const std::size_t n = positive.size();
  std::vector<std::uint64_t> ordered;
  ordered.reserve(2 * n + 1);
  for (std::size_t i = n; i-- > 0;) ordered.push_back(negative[i]);
  ordered.push_back(zero_count);
  for (std::size_t i = 0; i < n; ++i) ordered.push_back(positive[i]);

  const std::size_t index = quantile_bucket(ordered, total, q);
  if (index >= ordered.size() || index == n) return 0.0;
  if (index < n) return -bucket_representative(n - 1 - index);
  return bucket_representative(index - n - 1);
}

double MetricsSnapshot::DistributionValue::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double MetricsSnapshot::DistributionValue::variance() const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double m = mean();
  return std::max(0.0, sum_squares / static_cast<double>(n) - m * m);
}

double MetricsSnapshot::DistributionValue::stddev() const noexcept {
  return std::sqrt(variance());
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double MetricsSnapshot::gauge_value(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

std::string distribution_summary_json(
    const MetricsSnapshot::DistributionValue& distribution) {
  std::string out = "{\"count\":" + std::to_string(distribution.count());
  const auto field = [&out](const char* key, double value) {
    out += ",\"";
    out += key;
    out += "\":";
    out += util::exact_number(value);
  };
  field("p50", distribution.quantile(0.5));
  field("p90", distribution.quantile(0.9));
  field("p99", distribution.quantile(0.99));
  field("min", distribution.min);
  field("max", distribution.max);
  field("mean", distribution.mean());
  field("stddev", distribution.stddev());
  out += '}';
  return out;
}

std::string MetricsSnapshot::to_jsonl() const {
  std::ostringstream out;
  for (const auto& c : counters) {
    out << "{\"type\":\"counter\",\"name\":\"" << json_escape(c.name)
        << "\",\"value\":" << c.value << "}\n";
  }
  for (const auto& g : gauges) {
    out << "{\"type\":\"gauge\",\"name\":\"" << json_escape(g.name)
        << "\",\"value\":" << util::format_number(g.value) << "}\n";
  }
  for (const auto& d : distributions) {
    // The summary object minus its opening brace continues this line.
    out << "{\"type\":\"distribution\",\"name\":\"" << json_escape(d.name)
        << "\"," << distribution_summary_json(d).substr(1) << '\n';
  }
  return out.str();
}

void MetricsSnapshot::save_jsonl(const std::filesystem::path& path) const {
  util::atomic_write(path, to_jsonl());
}

}  // namespace dsa::obs

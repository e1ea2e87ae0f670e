#include "obs/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "util/env.hpp"
#include "util/fingerprint.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/proc_stat.hpp"
#include "util/thread_pool.hpp"

#ifndef _WIN32
#include <signal.h>
#include <unistd.h>
#endif

namespace dsa::obs {

namespace {

constexpr std::uint32_t kMinIntervalMs = 1;
constexpr std::uint32_t kMaxIntervalMs = 3'600'000;  // one hour
constexpr std::size_t kMaxShardList = 64;    // full id->state entries
constexpr std::size_t kMaxShardStrip = 512;  // one-char-per-shard strip
constexpr std::size_t kMaxPhasePaths = 8;    // top profiler paths per sample
constexpr std::size_t kMaxSketchNames = 16;  // sketch summaries per sample

std::int64_t unix_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::int64_t current_pid() noexcept {
#ifndef _WIN32
  return static_cast<std::int64_t>(::getpid());
#else
  return 0;
#endif
}

char shard_char(ShardState state) noexcept {
  switch (state) {
    case ShardState::kTodo: return '.';
    case ShardState::kRunning: return '>';
    case ShardState::kDone: return '#';
    case ShardState::kFailed: return 'x';
    case ShardState::kResumed: return '=';
  }
  return '?';
}

// Tiny JSON-object builder: callers append `"key":value` pairs; commas and
// braces are handled here. Output is one line, schema-v1 style like the
// bench JSONs.
struct JsonObject {
  std::string out = "{";
  bool first = true;

  void sep(const char* key) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    out += "\":";
  }
  void str(const char* key, std::string_view value) {
    sep(key);
    out += '"';
    out += util::json::escape(value);
    out += '"';
  }
  void num(const char* key, std::uint64_t value) {
    sep(key);
    out += std::to_string(value);
  }
  void num(const char* key, std::int64_t value) {
    sep(key);
    out += std::to_string(value);
  }
  void num(const char* key, double value) {
    sep(key);
    out += util::exact_number(value);
  }
  void raw(const char* key, std::string_view json) {
    sep(key);
    out += json;
  }
  std::string finish() {
    out += '}';
    return std::move(out);
  }
};

}  // namespace

const char* to_string(ShardState state) noexcept {
  switch (state) {
    case ShardState::kTodo: return "todo";
    case ShardState::kRunning: return "running";
    case ShardState::kDone: return "done";
    case ShardState::kFailed: return "failed";
    case ShardState::kResumed: return "resumed";
  }
  return "unknown";
}

const char* to_string(RunHealth health) noexcept {
  switch (health) {
    case RunHealth::kRunning: return "RUNNING";
    case RunHealth::kStalled: return "STALLED";
    case RunHealth::kDead: return "DEAD";
    case RunHealth::kDone: return "DONE";
    case RunHealth::kFailed: return "FAILED";
  }
  return "UNKNOWN";
}

TelemetryOptions TelemetryOptions::from_environment() {
  TelemetryOptions options;
  options.enabled =
      util::env_enum("DSA_STATUS", "off", {"off", "on"}) == "on";
  const std::int64_t interval =
      util::env_int("DSA_STATUS_INTERVAL_MS", 1000);
  if (interval < kMinIntervalMs || interval > kMaxIntervalMs) {
    throw std::runtime_error("DSA_STATUS_INTERVAL_MS='" +
                             std::to_string(interval) +
                             "' is invalid: expected 1..3600000");
  }
  options.interval_ms = static_cast<std::uint32_t>(interval);
  options.dir = util::env_string("DSA_STATUS_DIR", "results");
  return options;
}

std::string sanitize_run_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    out += ok ? c : '_';
  }
  if (out.empty()) out = "run";
  return out;
}

// ---------------------------------------------------------------------------
// Run state + sampler core.

struct TelemetryRun::State {
  // Immutable after begin_run().
  std::string name;
  std::string kind;
  std::string output;
  std::string spec_fp_hex;  // empty when no fingerprint was supplied
  std::filesystem::path status_path;
  std::filesystem::path timeseries_path;
  std::int64_t pid = 0;
  std::int64_t started_unix_ms = 0;
  int uncaught_at_begin = 0;  // so the dtor can tell "done" from "unwinding"
  std::chrono::steady_clock::time_point started_steady;
  std::uint32_t interval_ms = 1000;
  std::shared_ptr<struct SamplerCore> core;

  // Hot, worker-facing: relaxed atomics only.
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> total{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<const util::ThreadPool*> pool{nullptr};
  std::atomic<bool> finished{false};

  // Rare, short-lived lock (phase changes, errors, per-job shard flips) —
  // never taken inside simulation hot loops.
  std::mutex mutex;
  std::string phase;
  std::string last_error;
  std::vector<std::string> shard_labels;
  std::vector<std::uint8_t> shard_states;

  // Sampler-private (guarded by SamplerCore::mutex).
  std::uint64_t seq = 0;
  std::uint64_t last_done = 0;
  std::int64_t last_sample_ms = 0;
  std::map<std::string, std::uint64_t> last_counters;
};

namespace {

using RunState = TelemetryRun::State;

}  // namespace

// Owns the registered runs and serializes every file write. Shared between
// Telemetry (sampler thread) and outstanding TelemetryRun handles, so a
// handle outliving its Telemetry (or vice versa) stays safe.
struct SamplerCore {
  std::mutex mutex;
  TelemetryOptions options;  // guarded by mutex
  std::vector<std::shared_ptr<RunState>> runs;  // guarded by mutex

  /// One full sampling pass over every live run. Never throws.
  void sample_all() {
    std::lock_guard lock(mutex);
    if (!options.enabled) return;
    sample_all_locked(/*final=*/false, /*ok=*/true, nullptr);
  }

  /// Final write for one run (state done/failed), then deregistration.
  void finish_run(const std::shared_ptr<RunState>& state, bool ok) {
    std::lock_guard lock(mutex);
    sample_all_locked(/*final=*/true, ok, state.get());
    runs.erase(std::remove(runs.begin(), runs.end(), state), runs.end());
  }

  /// Samples either every live run (target == nullptr) or just `target`.
  /// Shares one registry/profiler/proc-stat read across runs.
  void sample_all_locked(bool final, bool ok, RunState* target) {
    const std::int64_t now_ms = unix_now_ms();
    const auto steady_now = std::chrono::steady_clock::now();
    const MetricsSnapshot snap = Registry::global().snapshot();
    const util::ProcStat mem = util::read_proc_stat();
    const PhaseReport phases = Profiler::global().report();
    for (const auto& run : runs) {
      if (target != nullptr && run.get() != target) continue;
      if (target == nullptr && run->finished.load(std::memory_order_relaxed))
        continue;
      try {
        write_sample(*run, final, ok, now_ms, steady_now, snap, mem, phases);
      } catch (...) {
        // Telemetry must never take the experiment down: a full disk or
        // unwritable status dir silently loses samples, nothing else.
      }
    }
    // Deregistration is finish_run's job alone (plus begin_run's supersede
    // prune). The periodic pass must never drop a finished run itself:
    // `finished` flips before finish_run takes this mutex, so a pass landing
    // in that window would deregister the run and swallow its final
    // done/failed heartbeat.
  }

  void write_sample(RunState& run, bool final, bool ok, std::int64_t now_ms,
                    std::chrono::steady_clock::time_point steady_now,
                    const MetricsSnapshot& snap, const util::ProcStat& mem,
                    const PhaseReport& phases) {
    const double uptime_sec =
        std::chrono::duration<double>(steady_now - run.started_steady).count();
    const std::uint64_t done = run.done.load(std::memory_order_relaxed);
    const std::uint64_t total = run.total.load(std::memory_order_relaxed);
    const std::uint64_t failed = run.failed.load(std::memory_order_relaxed);
    const auto* pool = run.pool.load(std::memory_order_relaxed);
    const std::uint64_t queue_depth = pool != nullptr ? pool->pending_jobs() : 0;

    // Windowed rate for display, cumulative average for the ETA (smoother
    // over bursty job completion).
    const double avg_rate = uptime_sec > 0.0 ? done / uptime_sec : 0.0;
    double rate = avg_rate;
    if (run.last_sample_ms > 0 && now_ms > run.last_sample_ms &&
        done >= run.last_done) {
      rate = (done - run.last_done) /
             ((now_ms - run.last_sample_ms) / 1000.0);
    }
    double eta_sec = -1.0;
    if (!final && total > done && avg_rate > 0.0) {
      eta_sec = (total - done) / avg_rate;
    }
    if (final) eta_sec = 0.0;

    // Counter deltas since this run's previous sample.
    std::map<std::string, std::uint64_t> counters;
    for (const auto& c : snap.counters) {
      if (c.value != 0) counters.emplace(c.name, c.value);
    }
    std::string counters_json = "{";
    std::string deltas_json = "{";
    {
      bool first_c = true;
      bool first_d = true;
      for (const auto& [cname, value] : counters) {
        if (!first_c) counters_json += ',';
        first_c = false;
        counters_json += '"';
        counters_json += util::json::escape(cname);
        counters_json += "\":";
        counters_json += std::to_string(value);
        const auto prev = run.last_counters.find(cname);
        const std::uint64_t before =
            prev == run.last_counters.end() ? 0 : prev->second;
        if (value > before) {
          if (!first_d) deltas_json += ',';
          first_d = false;
          deltas_json += '"';
          deltas_json += util::json::escape(cname);
          deltas_json += "\":";
          deltas_json += std::to_string(value - before);
        }
      }
    }
    counters_json += '}';
    deltas_json += '}';

    std::string gauges_json = "{";
    {
      bool first_g = true;
      for (const auto& g : snap.gauges) {
        if (!first_g) gauges_json += ',';
        first_g = false;
        gauges_json += '"';
        gauges_json += util::json::escape(g.name);
        gauges_json += "\":";
        gauges_json += util::exact_number(g.value);
      }
    }
    gauges_json += '}';

    // Swarm-health sketch summaries: constant-size per sample regardless of
    // population. One distribution_summary_json object per non-empty
    // registry distribution, in name order. Empty distributions and the
    // section itself are omitted so runs without distribution feeds keep
    // their historical schema bytes.
    std::string sketches_json;
    {
      std::map<std::string_view, const MetricsSnapshot::DistributionValue*>
          by_name;
      for (const auto& distribution : snap.distributions) {
        if (distribution.count() > 0) {
          by_name[distribution.name] = &distribution;
        }
      }
      std::size_t emitted = 0;
      std::string body = "{";
      for (const auto& [sname, distribution] : by_name) {
        if (emitted >= kMaxSketchNames) break;
        if (emitted++ > 0) body += ',';
        body += '"';
        body += util::json::escape(sname);
        body += "\":";
        body += distribution_summary_json(*distribution);
      }
      body += '}';
      if (emitted > 0) sketches_json = std::move(body);
    }

    // Copy the rarely-written strings/shards under the run's own lock.
    std::string phase;
    std::string last_error;
    std::vector<std::string> shard_labels;
    std::vector<std::uint8_t> shard_states;
    {
      std::lock_guard run_lock(run.mutex);
      phase = run.phase;
      last_error = run.last_error;
      if (run.shard_states.size() <= kMaxShardList) {
        shard_labels = run.shard_labels;
      }
      shard_states = run.shard_states;
    }

    std::uint64_t shard_counts[5] = {0, 0, 0, 0, 0};
    std::string strip;
    strip.reserve(std::min(shard_states.size(), kMaxShardStrip));
    for (std::size_t i = 0; i < shard_states.size(); ++i) {
      const auto s = shard_states[i] <= 4 ? shard_states[i] : 0;
      ++shard_counts[s];
      if (i < kMaxShardStrip)
        strip += shard_char(static_cast<ShardState>(s));
    }

    const char* state_str = "running";
    if (final) state_str = ok ? "done" : "failed";

    // (a) Heartbeat: one atomically replaced JSON object.
    JsonObject heartbeat;
    heartbeat.str("type", "status");
    heartbeat.num("schema", std::uint64_t{1});
    heartbeat.str("name", run.name);
    heartbeat.str("kind", run.kind);
    heartbeat.num("pid", run.pid);
    heartbeat.str("state", state_str);
    heartbeat.num("seq", run.seq);
    heartbeat.str("spec_fp", run.spec_fp_hex);
    heartbeat.str("output", run.output);
    heartbeat.str("phase", phase);
    heartbeat.num("interval_ms", std::uint64_t{run.interval_ms});
    heartbeat.num("started_unix_ms", run.started_unix_ms);
    heartbeat.num("timestamp_unix_ms", now_ms);
    heartbeat.num("uptime_sec", uptime_sec);
    {
      JsonObject jobs;
      jobs.num("done", done);
      jobs.num("total", total);
      jobs.num("failed", failed);
      heartbeat.raw("jobs", jobs.finish());
    }
    heartbeat.num("rate_per_sec", rate);
    heartbeat.num("eta_sec", eta_sec);
    heartbeat.num("rss_kb", mem.rss_kb);
    heartbeat.num("peak_rss_kb", mem.peak_rss_kb);
    heartbeat.num("queue_depth", queue_depth);
    heartbeat.str("last_error", last_error);
    if (!shard_states.empty()) {
      JsonObject counts;
      for (int s = 0; s < 5; ++s) {
        counts.num(to_string(static_cast<ShardState>(s)), shard_counts[s]);
      }
      heartbeat.raw("shard_counts", counts.finish());
      heartbeat.str("shard_strip", strip);
      if (!shard_labels.empty()) {
        std::string shards = "[";
        for (std::size_t i = 0; i < shard_labels.size(); ++i) {
          if (i > 0) shards += ',';
          JsonObject shard;
          shard.str("id", shard_labels[i]);
          shard.str("state",
                    to_string(static_cast<ShardState>(
                        shard_states[i] <= 4 ? shard_states[i] : 0)));
          shards += shard.finish();
        }
        shards += ']';
        heartbeat.raw("shards", shards);
      }
    }
    heartbeat.raw("counters", counters_json);
    heartbeat.raw("gauges", gauges_json);
    if (!sketches_json.empty()) heartbeat.raw("sketches", sketches_json);
    util::atomic_write(run.status_path, heartbeat.finish() + "\n");

    // (b) Time-series: append-only, so the series survives (and spans)
    // crash/resume cycles. Skip the begin_run bootstrap sample (seq 0 is
    // the baseline that zeroes the counter deltas).
    if (run.seq > 0 || final) {
      JsonObject line;
      line.str("type", "telemetry");
      line.num("schema", std::uint64_t{1});
      line.str("name", run.name);
      line.num("pid", run.pid);
      line.num("seq", run.seq);
      line.num("timestamp_unix_ms", now_ms);
      line.num("uptime_sec", uptime_sec);
      line.str("phase", phase);
      line.num("jobs_done", done);
      line.num("jobs_total", total);
      line.num("jobs_failed", failed);
      line.num("rate_per_sec", rate);
      line.num("rss_kb", mem.rss_kb);
      line.num("peak_rss_kb", mem.peak_rss_kb);
      line.num("queue_depth", queue_depth);
      line.raw("counters_delta", deltas_json);
      line.raw("gauges", gauges_json);
      {
        // Top phases by accumulated wall time; enough for a live flame
        // summary without unbounded line growth.
        PhaseReport top(phases);
        std::stable_sort(top.begin(), top.end(),
                         [](const PhaseStat& a, const PhaseStat& b) {
                           return a.total_ms > b.total_ms;
                         });
        if (top.size() > kMaxPhasePaths) top.resize(kMaxPhasePaths);
        JsonObject phase_obj;
        for (const auto& p : top) {
          phase_obj.num(p.path.c_str(), p.total_ms);
        }
        line.raw("phases_ms", phase_obj.finish());
      }
      if (!sketches_json.empty()) line.raw("sketches", sketches_json);
      std::ofstream series(run.timeseries_path,
                           std::ios::app | std::ios::binary);
      if (series) {
        series << line.finish() << '\n';
        series.flush();
      }
    }

    run.last_counters = std::move(counters);
    run.last_done = done;
    run.last_sample_ms = now_ms;
    ++run.seq;
  }
};

// ---------------------------------------------------------------------------
// TelemetryRun: thin forwarding shell around State.

TelemetryRun::TelemetryRun(TelemetryRun&& other) noexcept
    : state_(std::move(other.state_)) {}

TelemetryRun& TelemetryRun::operator=(TelemetryRun&& other) noexcept {
  if (this != &other) {
    finish(true);
    state_ = std::move(other.state_);
  }
  return *this;
}

TelemetryRun::~TelemetryRun() {
  // A handle destroyed by stack unwinding marks the run failed; a normal
  // scope exit marks it done.
  if (state_ != nullptr) {
    finish(std::uncaught_exceptions() <= state_->uncaught_at_begin);
  }
}

void TelemetryRun::set_phase(std::string_view phase) {
  if (!state_) return;
  std::lock_guard lock(state_->mutex);
  state_->phase.assign(phase);
}

void TelemetryRun::add_done(std::uint64_t n) {
  if (!state_) return;
  state_->done.fetch_add(n, std::memory_order_relaxed);
}

void TelemetryRun::update_done(std::uint64_t done) {
  if (!state_) return;
  std::uint64_t current = state_->done.load(std::memory_order_relaxed);
  while (done > current &&
         !state_->done.compare_exchange_weak(current, done,
                                             std::memory_order_relaxed)) {
  }
}

void TelemetryRun::add_failed(std::uint64_t n) {
  if (!state_) return;
  state_->failed.fetch_add(n, std::memory_order_relaxed);
}

void TelemetryRun::set_total(std::uint64_t total) {
  if (!state_) return;
  state_->total.store(total, std::memory_order_relaxed);
}

void TelemetryRun::set_last_error(std::string_view message) {
  if (!state_) return;
  std::lock_guard lock(state_->mutex);
  state_->last_error.assign(message);
}

void TelemetryRun::watch_pool(const util::ThreadPool* pool) {
  if (!state_) return;
  state_->pool.store(pool, std::memory_order_relaxed);
}

void TelemetryRun::init_shards(std::vector<std::string> labels) {
  if (!state_) return;
  std::lock_guard lock(state_->mutex);
  state_->shard_states.assign(labels.size(),
                              static_cast<std::uint8_t>(ShardState::kTodo));
  state_->shard_labels = std::move(labels);
}

void TelemetryRun::set_shard_state(std::size_t index, ShardState state) {
  if (!state_) return;
  std::lock_guard lock(state_->mutex);
  if (index < state_->shard_states.size()) {
    state_->shard_states[index] = static_cast<std::uint8_t>(state);
  }
}

void TelemetryRun::finish(bool ok) {
  if (!state_) return;
  std::shared_ptr<State> state = std::move(state_);
  if (state->finished.exchange(true)) return;
  // Make sure the pool pointer cannot dangle past this point.
  state->pool.store(nullptr, std::memory_order_relaxed);
  if (state->core) state->core->finish_run(state, ok);
}

// ---------------------------------------------------------------------------
// Telemetry: sampler thread lifecycle.

struct Telemetry::Impl {
  std::shared_ptr<SamplerCore> core = std::make_shared<SamplerCore>();
  std::atomic<bool> enabled{false};

  // Sampler-thread lifecycle; lifecycle_mutex serializes configure() calls,
  // wake_mutex/wake guard the stop flag the thread sleeps on.
  std::mutex lifecycle_mutex;
  std::thread sampler;
  std::mutex wake_mutex;
  std::condition_variable wake;
  bool stop_requested = false;

  void stop_thread() {
    if (!sampler.joinable()) return;
    {
      std::lock_guard lock(wake_mutex);
      stop_requested = true;
    }
    wake.notify_all();
    sampler.join();
  }

  void sampler_loop() {
    for (;;) {
      std::uint32_t interval_ms;
      {
        std::lock_guard lock(core->mutex);
        interval_ms = core->options.interval_ms;
      }
      {
        std::unique_lock lock(wake_mutex);
        wake.wait_for(lock, std::chrono::milliseconds(interval_ms),
                      [this] { return stop_requested; });
        if (stop_requested) return;
      }
      core->sample_all();
    }
  }
};

Telemetry::Telemetry() : impl_(std::make_unique<Impl>()) {}

Telemetry::~Telemetry() {
  std::lock_guard lock(impl_->lifecycle_mutex);
  impl_->stop_thread();
}

Telemetry& Telemetry::global() {
  static Telemetry* instance = new Telemetry();  // leaked: outlives exit paths
  return *instance;
}

void Telemetry::configure(const TelemetryOptions& options) {
  std::lock_guard lifecycle(impl_->lifecycle_mutex);
  impl_->stop_thread();
  {
    std::lock_guard lock(impl_->core->mutex);
    impl_->core->options = options;
  }
  impl_->enabled.store(options.enabled, std::memory_order_relaxed);
  if (!options.enabled) return;
  // Telemetry feeds off the metrics registry and profiler; make sure they
  // are recording (no-op when compiled out — heartbeats still carry
  // progress/RSS, just with empty counter sections).
  set_enabled(true);
  {
    std::lock_guard lock(impl_->wake_mutex);
    impl_->stop_requested = false;
  }
  Impl* impl = impl_.get();
  impl_->sampler = std::thread([impl] { impl->sampler_loop(); });
}

bool Telemetry::enabled() const noexcept {
  return impl_->enabled.load(std::memory_order_relaxed);
}

TelemetryOptions Telemetry::options() const {
  std::lock_guard lock(impl_->core->mutex);
  return impl_->core->options;
}

TelemetryRun Telemetry::begin_run(RunInfo info) {
  if (!enabled()) return {};
  auto state = std::make_shared<TelemetryRun::State>();
  state->core = impl_->core;
  state->name = sanitize_run_name(info.name);
  state->kind = std::move(info.kind);
  state->output = std::move(info.output);
  if (info.spec_fingerprint != 0) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(info.spec_fingerprint));
    state->spec_fp_hex = hex;
  }
  state->pid = current_pid();
  state->uncaught_at_begin = std::uncaught_exceptions();
  state->started_unix_ms = unix_now_ms();
  state->started_steady = std::chrono::steady_clock::now();
  state->total.store(info.jobs_total, std::memory_order_relaxed);

  std::lock_guard lock(impl_->core->mutex);
  state->interval_ms = impl_->core->options.interval_ms;
  const auto& dir = impl_->core->options.dir;
  state->status_path = dir / (state->name + ".status.json");
  state->timeseries_path =
      dir / ("STATUS_" + state->name + ".timeseries.jsonl");
  try {
    std::filesystem::create_directories(dir);
  } catch (...) {
  }
  // A restarted run supersedes the previous registration under the same
  // heartbeat path (resume after crash within one process lifetime). Only
  // path identity may deregister here: pruning on `finished` would race the
  // owning handle's finish_run (the flag flips before it takes the core
  // mutex) and swallow that run's final done/failed heartbeat.
  auto& runs = impl_->core->runs;
  runs.erase(std::remove_if(runs.begin(), runs.end(),
                            [&](const auto& r) {
                              return r->status_path == state->status_path;
                            }),
             runs.end());
  runs.push_back(state);
  // Bootstrap sample: the heartbeat exists immediately (fast runs may
  // finish inside one interval) and counter deltas get their baseline.
  impl_->core->sample_all_locked(/*final=*/false, /*ok=*/true, state.get());
  return TelemetryRun(state);
}

void Telemetry::sample_now() { impl_->core->sample_all(); }

// ---------------------------------------------------------------------------
// Reader side.

namespace {

const util::json::Value* find_field(const util::json::Value& root,
                                    const char* key) {
  return root.find(key);
}

std::string read_string(const util::json::Value& root, const char* key) {
  const auto* v = find_field(root, key);
  return v != nullptr && v->type == util::json::Value::Type::kString ? v->text
                                                                     : "";
}

double read_double(const util::json::Value& root, const char* key,
                   double fallback = 0.0) {
  const auto* v = find_field(root, key);
  return v != nullptr && v->type == util::json::Value::Type::kNumber
             ? v->number
             : fallback;
}

std::uint64_t read_u64(const util::json::Value& root, const char* key) {
  const double d = read_double(root, key);
  return d > 0.0 ? static_cast<std::uint64_t>(d) : 0;
}

std::int64_t read_i64(const util::json::Value& root, const char* key) {
  return static_cast<std::int64_t>(read_double(root, key));
}

}  // namespace

StatusFile load_status_file(const std::filesystem::path& path) {
  const util::json::Value root = util::json::parse_file(path);
  if (root.type != util::json::Value::Type::kObject ||
      read_string(root, "type") != "status") {
    throw std::runtime_error(path.string() +
                             ": not a telemetry status file (expected "
                             "{\"type\":\"status\",...})");
  }
  StatusFile status;
  status.path = path;
  status.schema = static_cast<int>(read_i64(root, "schema"));
  status.name = read_string(root, "name");
  status.kind = read_string(root, "kind");
  status.state = read_string(root, "state");
  status.phase = read_string(root, "phase");
  status.last_error = read_string(root, "last_error");
  status.output = read_string(root, "output");
  status.spec_fp = read_string(root, "spec_fp");
  status.pid = read_i64(root, "pid");
  status.seq = read_u64(root, "seq");
  status.started_unix_ms = read_i64(root, "started_unix_ms");
  status.timestamp_unix_ms = read_i64(root, "timestamp_unix_ms");
  status.interval_ms = static_cast<std::uint32_t>(read_u64(root, "interval_ms"));
  status.uptime_sec = read_double(root, "uptime_sec");
  if (const auto* jobs = find_field(root, "jobs");
      jobs != nullptr && jobs->type == util::json::Value::Type::kObject) {
    status.done = read_u64(*jobs, "done");
    status.total = read_u64(*jobs, "total");
    status.failed = read_u64(*jobs, "failed");
  }
  status.rate_per_sec = read_double(root, "rate_per_sec");
  status.eta_sec = read_double(root, "eta_sec", -1.0);
  status.rss_kb = read_u64(root, "rss_kb");
  status.peak_rss_kb = read_u64(root, "peak_rss_kb");
  status.queue_depth = read_u64(root, "queue_depth");
  if (const auto* shards = find_field(root, "shards");
      shards != nullptr && shards->type == util::json::Value::Type::kArray) {
    for (const auto& item : shards->items) {
      if (item.type != util::json::Value::Type::kObject) continue;
      status.shards.emplace_back(read_string(item, "id"),
                                 read_string(item, "state"));
    }
  }
  if (const auto* counts = find_field(root, "shard_counts");
      counts != nullptr && counts->type == util::json::Value::Type::kObject) {
    for (const auto& [key, value] : counts->members) {
      if (value.type == util::json::Value::Type::kNumber) {
        status.shard_counts[key] =
            static_cast<std::uint64_t>(value.number);
      }
    }
  }
  if (const auto* counters = find_field(root, "counters");
      counters != nullptr &&
      counters->type == util::json::Value::Type::kObject) {
    for (const auto& [key, value] : counters->members) {
      if (value.type == util::json::Value::Type::kNumber) {
        status.counters[key] = static_cast<std::uint64_t>(value.number);
      }
    }
  }
  if (const auto* gauges = find_field(root, "gauges");
      gauges != nullptr && gauges->type == util::json::Value::Type::kObject) {
    for (const auto& [key, value] : gauges->members) {
      if (value.type == util::json::Value::Type::kNumber) {
        status.gauges[key] = value.number;
      }
    }
  }
  if (const auto* sketches = find_field(root, "sketches");
      sketches != nullptr &&
      sketches->type == util::json::Value::Type::kObject) {
    for (const auto& [sketch_name, fields] : sketches->members) {
      if (fields.type != util::json::Value::Type::kObject) continue;
      auto& into = status.sketches[sketch_name];
      for (const auto& [key, value] : fields.members) {
        if (value.type == util::json::Value::Type::kNumber) {
          into[key] = value.number;
        }
      }
    }
  }
  return status;
}

std::vector<TimeseriesSample> load_timeseries(
    const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error(path.string() + ": cannot open time-series file");
  }
  std::vector<TimeseriesSample> samples;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    util::json::Value root;
    try {
      root = util::json::parse(line);
    } catch (const std::exception& error) {
      throw std::runtime_error(path.string() + ":" + std::to_string(line_no) +
                               ": " + error.what());
    }
    if (root.type != util::json::Value::Type::kObject ||
        read_string(root, "type") != "telemetry") {
      continue;
    }
    TimeseriesSample sample;
    sample.seq = read_u64(root, "seq");
    sample.uptime_sec = read_double(root, "uptime_sec");
    sample.jobs_done = read_u64(root, "jobs_done");
    if (const auto* deltas = find_field(root, "counters_delta");
        deltas != nullptr && deltas->type == util::json::Value::Type::kObject) {
      for (const auto& [key, value] : deltas->members) {
        if (value.type == util::json::Value::Type::kNumber) {
          sample.counters_delta[key] =
              static_cast<std::uint64_t>(value.number);
        }
      }
    }
    if (const auto* gauges = find_field(root, "gauges");
        gauges != nullptr && gauges->type == util::json::Value::Type::kObject) {
      for (const auto& [key, value] : gauges->members) {
        if (value.type == util::json::Value::Type::kNumber) {
          sample.gauges[key] = value.number;
        }
      }
    }
    if (const auto* sketches = find_field(root, "sketches");
        sketches != nullptr &&
        sketches->type == util::json::Value::Type::kObject) {
      for (const auto& [sketch_name, fields] : sketches->members) {
        if (fields.type != util::json::Value::Type::kObject) continue;
        auto& into = sample.sketches[sketch_name];
        for (const auto& [key, value] : fields.members) {
          if (value.type == util::json::Value::Type::kNumber) {
            into[key] = value.number;
          }
        }
      }
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

bool pid_alive(std::int64_t pid) noexcept {
  if (pid <= 0) return false;
#ifndef _WIN32
  if (::kill(static_cast<pid_t>(pid), 0) == 0) return true;
  return errno == EPERM;
#else
  return false;
#endif
}

RunHealth classify_status(const StatusFile& status, std::int64_t now_unix_ms,
                          bool process_alive) noexcept {
  if (status.state == "done") return RunHealth::kDone;
  if (status.state == "failed") return RunHealth::kFailed;
  if (!process_alive) return RunHealth::kDead;
  const std::int64_t interval =
      status.interval_ms > 0 ? status.interval_ms : 1000;
  if (now_unix_ms - status.timestamp_unix_ms > 3 * interval) {
    return RunHealth::kStalled;
  }
  return RunHealth::kRunning;
}

RunHealth classify_status(const StatusFile& status) {
  return classify_status(status, unix_now_ms(), pid_alive(status.pid));
}

std::vector<std::filesystem::path> find_status_files(
    const std::filesystem::path& target) {
  std::vector<std::filesystem::path> found;
  std::error_code ec;
  if (std::filesystem::is_regular_file(target, ec)) {
    found.push_back(target);
    return found;
  }
  if (!std::filesystem::is_directory(target, ec)) return found;
  for (const auto& entry :
       std::filesystem::directory_iterator(target, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kSuffix = ".status.json";
    if (name.size() > kSuffix.size() &&
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) == 0) {
      found.push_back(entry.path());
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace dsa::obs

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

// Tiny JSON-object builder: callers append `"key":value` pairs; commas and
// braces are handled here. Output is one line.
struct JsonObject {
  std::string out = "{";
  bool first = true;

  void sep(std::string_view key) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += util::json::escape(key);
    out += "\":";
  }
  void str(std::string_view key, std::string_view value) {
    sep(key);
    out += '"';
    out += util::json::escape(value);
    out += '"';
  }
  void num(std::string_view key, std::uint64_t value) {
    sep(key);
    out += std::to_string(value);
  }
  void num(std::string_view key, std::int64_t value) {
    sep(key);
    out += std::to_string(value);
  }
  void num(std::string_view key, double value) {
    sep(key);
    out += util::exact_number(value);
  }
  void raw(std::string_view key, std::string_view json) {
    sep(key);
    out += json;
  }
  std::string finish() {
    out += '}';
    return std::move(out);
  }
};

template <typename Map>
std::string render_numbers(const Map& values) {
  JsonObject object;
  for (const auto& [key, value] : values) object.num(key, value);
  return object.finish();
}

}  // namespace

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

std::string render_sample(const StatusSample& s, std::string_view type) {
  JsonObject out;
  out.str("type", type);
  out.num("schema", std::int64_t{kStatusSchema});
  out.str("name", s.name);
  out.str("kind", s.kind);
  out.num("pid", s.pid);
  out.str("state", s.state);
  out.num("seq", s.seq);
  out.str("spec_fp", s.spec_fp);
  out.str("output", s.output);
  out.str("phase", s.phase);
  out.num("interval_ms", std::uint64_t{s.interval_ms});
  out.num("started_unix_ms", s.started_unix_ms);
  out.num("timestamp_unix_ms", s.timestamp_unix_ms);
  out.num("uptime_sec", s.uptime_sec);
  JsonObject jobs;
  jobs.num("done", s.done);
  jobs.num("total", s.total);
  jobs.num("failed", s.failed);
  out.raw("jobs", jobs.finish());
  out.num("rate_per_sec", s.rate_per_sec);
  out.num("eta_sec", s.eta_sec);
  out.num("rss_kb", s.rss_kb);
  out.num("peak_rss_kb", s.peak_rss_kb);
  out.num("queue_depth", s.queue_depth);
  out.str("last_error", s.last_error);
  out.str("shards", s.shards);
  out.raw("counters", render_numbers(s.counters));
  out.raw("gauges", render_numbers(s.gauges));
  JsonObject sketches;
  for (const auto& [name, fields] : s.sketches) {
    sketches.raw(name, render_numbers(fields));
  }
  out.raw("sketches", sketches.finish());
  return out.finish();
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

  // Hot, worker-facing: relaxed atomics only (the pool pointer, set twice
  // per run, is published with release/acquire).
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
  std::string shards;  // one ShardState character per shard

  // Sampler-private (guarded by SamplerCore::mutex).
  std::uint64_t seq = 0;
  std::uint64_t last_done = 0;
  std::int64_t last_sample_ms = 0;
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
  /// Shares one registry/proc-stat read across runs.
  void sample_all_locked(bool final, bool ok, RunState* target) {
    StatusSample shared;
    shared.timestamp_unix_ms = unix_now_ms();
    const util::ProcStat mem = util::read_proc_stat();
    shared.rss_kb = mem.rss_kb;
    shared.peak_rss_kb = mem.peak_rss_kb;
    const MetricsSnapshot snap = Registry::global().snapshot();
    for (const auto& c : snap.counters) {
      if (c.value != 0) shared.counters.emplace(c.name, c.value);
    }
    for (const auto& g : snap.gauges) shared.gauges.emplace(g.name, g.value);
    for (const auto& distribution : snap.distributions) {
      if (distribution.count() == 0) continue;
      auto& fields = shared.sketches[distribution.name];
      for (const auto& [key, value] : distribution_summary(distribution)) {
        fields.emplace(key, value);
      }
    }
    const auto steady_now = std::chrono::steady_clock::now();
    for (const auto& run : runs) {
      if (target != nullptr && run.get() != target) continue;
      if (target == nullptr && run->finished.load(std::memory_order_relaxed))
        continue;
      try {
        write_sample(*run, final, ok, steady_now, shared);
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

  void write_sample(RunState& run, bool final, bool ok,
                    std::chrono::steady_clock::time_point steady_now,
                    const StatusSample& shared) {
    StatusSample s = shared;
    s.name = run.name;
    s.kind = run.kind;
    s.pid = run.pid;
    s.state = final ? (ok ? "done" : "failed") : "running";
    s.seq = run.seq;
    s.spec_fp = run.spec_fp_hex;
    s.output = run.output;
    s.interval_ms = run.interval_ms;
    s.started_unix_ms = run.started_unix_ms;
    s.uptime_sec =
        std::chrono::duration<double>(steady_now - run.started_steady).count();
    s.done = run.done.load(std::memory_order_relaxed);
    s.total = run.total.load(std::memory_order_relaxed);
    s.failed = run.failed.load(std::memory_order_relaxed);
    // Acquire pairs with watch_pool's release: the pool's construction
    // happens-before the sampler reads its queue depth.
    const auto* pool = run.pool.load(std::memory_order_acquire);
    s.queue_depth = pool != nullptr ? pool->pending_jobs() : 0;
    {
      std::lock_guard run_lock(run.mutex);
      s.phase = run.phase;
      s.last_error = run.last_error;
      s.shards = run.shards;
    }

    // Windowed rate for display, cumulative average for the ETA (smoother
    // over bursty job completion).
    const std::int64_t now_ms = s.timestamp_unix_ms;
    const double avg_rate = s.uptime_sec > 0.0 ? s.done / s.uptime_sec : 0.0;
    s.rate_per_sec = avg_rate;
    if (run.last_sample_ms > 0 && now_ms > run.last_sample_ms &&
        s.done >= run.last_done) {
      s.rate_per_sec = (s.done - run.last_done) /
                       ((now_ms - run.last_sample_ms) / 1000.0);
    }
    if (final) {
      s.eta_sec = 0.0;
    } else if (s.total > s.done && avg_rate > 0.0) {
      s.eta_sec = (s.total - s.done) / avg_rate;
    }

    util::atomic_write(run.status_path, render_sample(s, "status") + "\n");
    // The series is append-only, so it survives (and spans) crash/resume
    // cycles. The begin_run bootstrap sample (seq 0) only seeds the
    // heartbeat.
    if (run.seq > 0 || final) {
      std::ofstream series(run.timeseries_path,
                           std::ios::app | std::ios::binary);
      if (series) series << render_sample(s, "telemetry") << '\n';
    }

    run.last_done = s.done;
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

void TelemetryRun::add_failed(std::uint64_t n) {
  if (!state_) return;
  state_->failed.fetch_add(n, std::memory_order_relaxed);
}

void TelemetryRun::set_last_error(std::string_view message) {
  if (!state_) return;
  std::lock_guard lock(state_->mutex);
  state_->last_error.assign(message);
}

void TelemetryRun::watch_pool(const util::ThreadPool* pool) {
  if (!state_) return;
  state_->pool.store(pool, std::memory_order_release);
}

void TelemetryRun::init_shards(std::size_t count) {
  if (!state_) return;
  std::lock_guard lock(state_->mutex);
  state_->shards.assign(count, static_cast<char>(ShardState::kTodo));
}

void TelemetryRun::set_shard_state(std::size_t index, ShardState state) {
  if (!state_) return;
  std::lock_guard lock(state_->mutex);
  if (index < state_->shards.size()) {
    state_->shards[index] = static_cast<char>(state);
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
  // Telemetry feeds off the metrics registry; make sure it is recording.
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
  // finish inside one interval).
  impl_->core->sample_all_locked(/*final=*/false, /*ok=*/true, state.get());
  return TelemetryRun(state);
}

void Telemetry::sample_now() { impl_->core->sample_all(); }

// ---------------------------------------------------------------------------
// Reader side.

namespace {

using util::json::Cursor;

std::uint64_t as_u64(const Cursor& field) {
  const std::int64_t value = field.as_int();
  if (value < 0) field.fail("expected a count, got " + std::to_string(value));
  return static_cast<std::uint64_t>(value);
}

// Member names of `object`, in file order; fails unless it is an object.
std::vector<std::string> keys_of(const Cursor& object) {
  if (!object.is_object()) {
    object.fail(std::string("expected object, got ") +
                object.value().type_name());
  }
  std::vector<std::string> keys;
  for (const auto& member : object.value().members) {
    keys.push_back(member.first);
  }
  return keys;
}

// Reads `object[key]` through `read` into `into` when the key is present.
template <typename T, typename Read>
void read_field(const Cursor& object, const char* key, T& into, Read read) {
  if (const auto field = object.try_key(key)) {
    into = static_cast<T>(read(*field));
  }
}

const auto as_string = [](const Cursor& c) { return c.as_string(); };
const auto as_int = [](const Cursor& c) { return c.as_int(); };
const auto as_double = [](const Cursor& c) { return c.as_double(); };

}  // namespace

StatusSample parse_sample(const util::json::Value& root,
                          std::string_view type, const std::string& origin) {
  const Cursor c(root, origin);
  const Cursor type_field = c.key("type");
  if (type_field.as_string() != type) {
    type_field.fail("expected \"" + std::string(type) + "\", got \"" +
                    type_field.as_string() + "\"");
  }
  const Cursor schema = c.key("schema");
  if (schema.as_int() != kStatusSchema) {
    schema.fail("unsupported schema " + std::to_string(schema.as_int()) +
                " (this reader reads schema " +
                std::to_string(kStatusSchema) + ")");
  }
  StatusSample s;
  read_field(c, "name", s.name, as_string);
  read_field(c, "kind", s.kind, as_string);
  read_field(c, "pid", s.pid, as_int);
  read_field(c, "state", s.state, as_string);
  read_field(c, "seq", s.seq, as_u64);
  read_field(c, "spec_fp", s.spec_fp, as_string);
  read_field(c, "output", s.output, as_string);
  read_field(c, "phase", s.phase, as_string);
  read_field(c, "interval_ms", s.interval_ms, as_u64);
  read_field(c, "started_unix_ms", s.started_unix_ms, as_int);
  read_field(c, "timestamp_unix_ms", s.timestamp_unix_ms, as_int);
  read_field(c, "uptime_sec", s.uptime_sec, as_double);
  if (const auto jobs = c.try_key("jobs")) {
    read_field(*jobs, "done", s.done, as_u64);
    read_field(*jobs, "total", s.total, as_u64);
    read_field(*jobs, "failed", s.failed, as_u64);
  }
  read_field(c, "rate_per_sec", s.rate_per_sec, as_double);
  read_field(c, "eta_sec", s.eta_sec, as_double);
  read_field(c, "rss_kb", s.rss_kb, as_u64);
  read_field(c, "peak_rss_kb", s.peak_rss_kb, as_u64);
  read_field(c, "queue_depth", s.queue_depth, as_u64);
  read_field(c, "last_error", s.last_error, as_string);
  read_field(c, "shards", s.shards, as_string);
  if (const auto counters = c.try_key("counters")) {
    for (const std::string& key : keys_of(*counters)) {
      s.counters[key] = as_u64(counters->key(key));
    }
  }
  if (const auto gauges = c.try_key("gauges")) {
    for (const std::string& key : keys_of(*gauges)) {
      s.gauges[key] = gauges->key(key).as_double();
    }
  }
  if (const auto sketches = c.try_key("sketches")) {
    for (const std::string& name : keys_of(*sketches)) {
      const Cursor fields = sketches->key(name);
      for (const std::string& key : keys_of(fields)) {
        s.sketches[name][key] = fields.key(key).as_double();
      }
    }
  }
  return s;
}

StatusSample load_status_file(const std::filesystem::path& path) {
  return parse_sample(util::json::parse_file(path), "status", path.string());
}

std::vector<StatusSample> load_timeseries(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error(path.string() + ": cannot open time-series file");
  }
  std::vector<StatusSample> samples;
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    samples.push_back(parse_sample(
        util::json::parse(line, path.string(), line_no), "telemetry",
        path.string()));
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

RunHealth classify_status(const StatusSample& status, std::int64_t now_unix_ms,
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

RunHealth classify_status(const StatusSample& status) {
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

#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <unistd.h>

#include "stats/descriptive.hpp"
#include "util/proc_stat.hpp"

namespace perfbench {

namespace {

// Reference kernel calls are at least this far apart (between ops).
constexpr std::int64_t kRefCadenceNs = 100'000'000;
// With --trace 1 the loop switches between untraced and traced slices of
// this length.
constexpr std::int64_t kSliceNs = 500'000'000;

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

RefKernel::RefKernel() : pristine_(8192), table_(8192) {
  std::uint32_t x = 0x9e3779b9u;
  for (auto& cell : pristine_) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    cell = x;
  }
}

double RefKernel::run_ms() {
  const std::int64_t start = now_ns();
  // Every call starts from the same table, so every call does the same
  // work: a dependent chain of table reads and writes with integer ALU
  // work and branches the predictor cannot learn. ~2 ms at 2.1 GHz.
  std::copy(pristine_.begin(), pristine_.end(), table_.begin());
  std::uint32_t x = 0x2545f491u;
  const std::uint32_t mask = static_cast<std::uint32_t>(table_.size() - 1);
  for (std::uint32_t i = 0; i < 400'000; ++i) {
    const std::uint32_t slot = (x ^ i) & mask;
    const std::uint32_t cell = table_[slot];
    x = (x * 0x01000193u) ^ cell;
    if (cell & 1u) {
      table_[slot] = cell + x;
    } else {
      x += cell >> 3;
    }
  }
  sink_ += x;
  return ms_between(start, now_ns());
}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

void SpanLog::add(const char* name, std::int64_t start_ns,
                  std::int64_t end_ns) {
  const Span span{name, start_ns, end_ns, op_.load(std::memory_order_relaxed),
                  thread_index()};
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

SpanLog::Totals SpanLog::totals(const std::string& name) const {
  Totals totals;
  std::lock_guard lock(mutex_);
  for (const Span& span : spans_) {
    if (name != span.name) continue;
    const double ms = ms_between(span.start_ns, span.end_ns);
    ++totals.count;
    totals.total_ms += ms;
    totals.ms.push_back(ms);
  }
  return totals;
}

bool SpanLog::write_chrome_trace(const std::filesystem::path& path) const {
  std::lock_guard lock(mutex_);
  if (spans_.empty()) return false;
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  const std::int64_t origin = spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                  i == 0 ? "" : ",", span.name, span.thread,
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  static_cast<unsigned long long>(span.op));
    out << line;
  }
  out << "\n]}\n";
  return true;
}

LoopResult run_loop(const Options& options, const OpFn& op, RefKernel& ref) {
  LoopResult result;
  const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  const std::int64_t start = now_ns();
  std::int64_t last_ref = start;
  std::size_t index = 0;
  SpanLog& log = SpanLog::global();

  // A slice runs whole ops of one kind; its wall and CPU time, minus the
  // reference kernel's, go to that kind's Phase.
  while (now_ns() - start < budget_ns) {
    const bool traced =
        options.trace && ((now_ns() - start) / kSliceNs) % 2 == 1;
    Phase& phase = traced ? result.traced : result.plain;
    log.set_enabled(traced);
    const std::int64_t slice_start = now_ns();
    const std::int64_t cpu_start = process_cpu_ns();
    std::int64_t ref_wall = 0;
    std::int64_t ref_cpu = 0;
    for (;;) {
      log.set_op(index);
      const std::int64_t op_start = now_ns();
      const bool ok = op(index);
      const std::int64_t op_end = now_ns();
      ++index;
      ++phase.ops;
      result.ok.push_back(ok);
      phase.op_ms.push_back(ms_between(op_start, op_end));
      if (op_end - last_ref >= kRefCadenceNs) {
        const std::int64_t cpu0 = thread_cpu_ns();
        const std::int64_t wall0 = now_ns();
        result.ref_ms.push_back(ref.run_ms());
        last_ref = now_ns();
        ref_wall += last_ref - wall0;
        ref_cpu += thread_cpu_ns() - cpu0;
      }
      const std::int64_t elapsed = now_ns() - start;
      if (elapsed >= budget_ns) break;
      if (options.trace &&
          ((elapsed / kSliceNs) % 2 == 1) != traced) {
        break;
      }
    }
    log.set_enabled(false);
    phase.wall_ns += now_ns() - slice_start - ref_wall;
    phase.cpu_ns += process_cpu_ns() - cpu_start - ref_cpu;
  }
  return result;
}

std::vector<double> time_setups(const std::function<void()>& reset,
                                const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupReps; ++i) {
    reset();
    const std::int64_t start = now_ns();
    setup();
    seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  return seconds;
}

double median(const std::vector<double>& values) {
  return values.empty() ? 0.0 : dsa::stats::percentile(values, 0.5);
}

std::uint64_t rss_kb() { return dsa::util::read_proc_stat().rss_kb; }
std::uint64_t peak_rss_kb() { return dsa::util::read_proc_stat().peak_rss_kb; }

std::vector<Metric> end_to_end_metrics(const std::vector<double>& setup_s,
                                       const LoopResult& loop) {
  const Phase& p = loop.plain;
  const double ops = static_cast<double>(p.ops);
  const double ops_per_s = ops / (static_cast<double>(p.wall_ns) / 1e9);
  return {
      {"setup_s", median(setup_s), "s"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"ops_per_ref", ops_per_s * median(loop.ref_ms) / 1000.0, "1/ref"},
      {"op_p50_ms", dsa::stats::percentile(p.op_ms, 0.5), "ms"},
      {"op_p90_ms", dsa::stats::percentile(p.op_ms, 0.9), "ms"},
      {"cpu_ms_per_op", static_cast<double>(p.cpu_ns) / 1e6 / ops, "ms"},
      {"peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MB"},
  };
}

void add_common_layers(const LoopResult& loop, std::vector<Metric>& out) {
  out.push_back({"host.ref_ms", median(loop.ref_ms), "ms"});
  const auto rate = [](const Phase& p) {
    return p.wall_ns > 0 ? static_cast<double>(p.ops) /
                               (static_cast<double>(p.wall_ns) / 1e9)
                         : 0.0;
  };
  const double plain = rate(loop.plain);
  const double traced = rate(loop.traced);
  out.push_back({"trace_overhead_frac",
                 plain > 0.0 && traced > 0.0 ? 1.0 - traced / plain : 0.0,
                 "frac"});
}

TempDir::TempDir(const std::filesystem::path& parent) {
  std::filesystem::create_directories(parent);
  path_ = std::filesystem::absolute(parent) /
          ("run-" + std::to_string(::getpid()) + "-" +
           std::to_string(now_ns() % 1'000'000'000));
  std::filesystem::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

void count_ops(const LoopResult& loop, Outcome& outcome) {
  outcome.attempted = loop.ok.size();
  outcome.failed = static_cast<std::size_t>(
      std::count(loop.ok.begin(), loop.ok.end(), false));
}

void fail_check(Outcome& outcome, const std::string& what) {
  if (outcome.check_failures.size() < 20) {
    outcome.check_failures.push_back(what);
  }
}

}  // namespace perfbench

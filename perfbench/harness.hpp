// Shared machinery of the benchmark harness: options, clocks, the host
// reference kernel, the timed op loop, the in-memory span log, and the
// result line.
//
// Every workload follows the same shape: set up several times (setup_s is
// the median), run a timed loop of whole ops for --seconds, check outputs,
// and report. With --trace 1 the loop alternates untraced and traced slices
// so the per-layer numbers and the tracing overhead come from the same
// stretch of host time.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Name of one output check whose checked value is deliberately
  /// corrupted, to show that the check fires (empty = none).
  std::string corrupt;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double ms_between(std::int64_t begin_ns, std::int64_t end_ns);
/// CPU time (user + system) of the whole process / the calling thread.
[[nodiscard]] std::int64_t process_cpu_ns();
[[nodiscard]] std::int64_t thread_cpu_ns();

/// Seeded input generator. std::mt19937_64's output sequence is fixed by
/// the standard, and below() avoids the library-specific distributions, so
/// a seed means the same inputs with every standard library.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : engine_(seed) {}
  std::uint64_t next() { return engine_(); }
  std::uint64_t below(std::uint64_t n) { return engine_() % n; }
  template <typename T>
  const T& pick(const std::vector<T>& values) {
    return values[below(values.size())];
  }
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[below(i)]);
    }
  }

 private:
  std::mt19937_64 engine_;
};

/// A fixed single-thread integer kernel over a 32 KiB table (fits in L1/L2)
/// that uses no repo code. Every call does the same work, so its time
/// tracks the host's speed at the moment, which ops_per_ref divides out.
class RefKernel {
 public:
  RefKernel();
  /// Runs the kernel once and returns its wall time in ms.
  double run_ms();

 private:
  std::vector<std::uint32_t> pristine_;
  std::vector<std::uint32_t> table_;
  std::uint64_t sink_ = 0;
};

/// One recorded span: a call into a layer made from the benchmark's code.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;      // op index the span belongs to
  std::uint32_t thread = 0;  // small per-thread id
};

/// In-memory span store. Spans are appended only while enabled; they are
/// kept until the run ends and then written as a Chrome trace.
class SpanLog {
 public:
  static SpanLog& global();
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Op index that spans recorded from now on (on any thread) belong to.
  void set_op(std::uint64_t op) { op_ = op; }
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  struct Totals {
    std::size_t count = 0;
    double total_ms = 0.0;
    std::vector<double> ms;  // every span's duration
  };
  [[nodiscard]] Totals totals(const std::string& name) const;
  /// Writes the spans as Chrome trace events; false when there were none.
  bool write_chrome_trace(const std::filesystem::path& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> op_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records one span around its lifetime when the span log is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(name), start_(SpanLog::global().enabled() ? now_ns() : -1) {}
  ~ScopedSpan() {
    if (start_ >= 0) SpanLog::global().add(name_, start_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::int64_t start_;
};

/// Figures of one kind of slice (untraced or traced) of the timed loop.
struct Phase {
  std::size_t ops = 0;
  std::int64_t wall_ns = 0;  // reference-kernel time excluded
  std::int64_t cpu_ns = 0;   // process CPU, reference-kernel CPU excluded
  std::vector<double> op_ms;
};

struct LoopResult {
  Phase plain;
  Phase traced;  // empty unless --trace 1
  std::vector<double> ref_ms;
  /// Per op index: false once the op failed a check, in the loop or in a
  /// check made after it.
  std::vector<bool> ok;
};

/// One op: runs input `index`; returns false when its output check failed.
using OpFn = std::function<bool(std::size_t index)>;

/// Runs whole ops until `options.seconds` have passed. Between ops, at a
/// fixed cadence, times the reference kernel (excluded from every other
/// timing). With options.trace the loop alternates untraced and traced
/// slices, switching the span log on for the latter.
LoopResult run_loop(const Options& options, const OpFn& op, RefKernel& ref);

/// How often each workload sets up; setup_s is the median.
constexpr int kSetupReps = 31;

/// Times `setup` kSetupReps times and returns each duration in seconds.
/// Before every repetition, `reset` tears down what the previous one built,
/// outside the timing.
std::vector<double> time_setups(const std::function<void()>& reset,
                                const std::function<void()>& setup);

/// dsa::stats::percentile at 0.5; 0 for an empty sample.
[[nodiscard]] double median(const std::vector<double>& values);

/// VmRSS / VmHWM of this process, in kB.
[[nodiscard]] std::uint64_t rss_kb();
[[nodiscard]] std::uint64_t peak_rss_kb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back: its checks' verdict, op counts, and every
/// figure it measured (end-to-end and per-layer alike).
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> check_failures;  // one line per failed check
  std::vector<double> setup_samples_s;      // every set-up's duration
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// The seven end-to-end metrics from the setup samples and the untraced
/// slices of the loop.
std::vector<Metric> end_to_end_metrics(const std::vector<double>& setup_s,
                                       const LoopResult& loop);

/// Per-layer metrics every workload reports: host.ref_ms and, in trace
/// mode, trace_overhead_frac.
void add_common_layers(const LoopResult& loop, std::vector<Metric>& out);

/// Per-run scratch directory, removed with everything in it on destruction.
class TempDir {
 public:
  explicit TempDir(const std::filesystem::path& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Keeps a line saying why an output check failed. The op it belongs to is
/// marked in LoopResult::ok by the loop or the caller.
void fail_check(Outcome& outcome, const std::string& what);

/// Sets Outcome::attempted and Outcome::failed from the loop's verdicts.
void count_ops(const LoopResult& loop, Outcome& outcome);

}  // namespace perfbench

// Structured trace sink: Chrome trace-event JSON, loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
//
// Usage: `TraceSink::global().start(path)` begins a capture; completed
// ScopedPhase spans (and explicit complete()/instant() calls) are buffered
// per thread; `stop_and_write()` merges the buffers and atomically writes
//
//   {"traceEvents":[
//     {"name":"sweep/quantify","cat":"dsa","ph":"X","ts":12.5,"dur":834.0,
//      "pid":1,"tid":2},
//     {"name":"scenario/job-done","cat":"dsa","ph":"i","ts":900.1,"s":"g",
//      "pid":1,"tid":1},
//     ...],"displayTimeUnit":"ms"}
//
// Timestamps are microseconds since start() on the steady clock — the sink
// never reads RNG state or feeds anything back into simulation code, so
// capturing a trace cannot perturb results (see obs.hpp's determinism
// contract).
#pragma once

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string_view>

namespace dsa::obs {

class TraceSink {
 public:
  static TraceSink& global();

  /// Begins buffering events, timestamped relative to now. Also flips
  /// `obs::set_enabled(true)` so phases start recording.
  void start(std::filesystem::path out_path);

  /// True between start() and stop_and_write(). Acquire load: seeing true
  /// also publishes the capture's t0 and output path set by start().
  [[nodiscard]] bool active() const noexcept {
    return active_.load(std::memory_order_acquire);
  }

  /// A duration slice ("ph":"X") on the calling thread's track.
  void complete(std::string_view name,
                std::chrono::steady_clock::time_point begin,
                std::chrono::steady_clock::time_point end);

  /// A global instant marker ("ph":"i","s":"g") — job completions,
  /// resume events, fault activations.
  void instant(std::string_view name);

  /// Stops capture, merges every thread's buffer, and atomically writes the
  /// JSON to the path given to start(). Returns the number of events
  /// written. No-op (returns 0) if no capture is active.
  std::size_t stop_and_write();

 private:
  TraceSink();
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  struct ThreadBuffer;
  struct Impl;
  ThreadBuffer& local_buffer();

  std::atomic<bool> active_{false};
  Impl* impl_;
};

}  // namespace dsa::obs

// Live phase stacks for the wall-clock flame sampler.
//
// `DSA_OBS_PHASE("sweep/quantify")` (or a ScopedPhase on the stack) marks
// the enclosing scope. Each thread publishes its currently-open phases as a
// small array of interned name pointers; `Profiler::sample_live_stacks()`
// reads every thread's array without blocking it, and the flame sampler
// (obs/flame) folds those reads into `outer;inner;leaf` counts. Entering
// and leaving a phase is a relaxed store plus a release store of the depth:
// no clock read, no lock, no allocation after a name's first use.
//
// While a TraceSink capture is active, a phase also reads the steady clock
// and, when it closes, emits a Chrome trace-event slice named by its
// `outer/inner` path, giving the same hierarchy on a timeline.
//
// Everything is inert while `obs::enabled()` is false: constructing a
// ScopedPhase is then a single predictable branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace dsa::obs {

class Profiler {
 public:
  /// Deepest phase nesting the live-stack view tracks. Deeper spans still
  /// nest correctly; they just stop contributing frames to samples and
  /// trace slice names.
  static constexpr std::size_t kMaxLiveDepth = 32;

  static Profiler& global();

  /// Wall-clock sampling view: every thread's currently-open phase stack,
  /// folded as "outer;inner;leaf", threads with no open phase skipped.
  /// Reading never blocks phase enter/exit — each frame is one relaxed
  /// atomic load of an interned name pointer (valid for the process
  /// lifetime), the depth an acquire load. A stack caught mid-transition
  /// may be off by its leaf frame; that is ordinary sampling skew, never
  /// a torn pointer.
  [[nodiscard]] std::vector<std::string> sample_live_stacks() const;

 private:
  friend class ScopedPhase;
  struct ThreadState;
  Profiler();
  ~Profiler();
  ThreadState& local_state();

  struct Impl;
  Impl* impl_;
};

/// Marks the enclosing scope as phase `name`, nested inside any phases
/// already open on this thread. No-op when observability is disabled.
class ScopedPhase {
 public:
  explicit ScopedPhase(std::string_view name);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Profiler::ThreadState* state_ = nullptr;  // null when inactive
  bool traced_ = false;  // a trace capture was active at entry
  std::chrono::steady_clock::time_point start_;
};

#define DSA_OBS_CONCAT_INNER(a, b) a##b
#define DSA_OBS_CONCAT(a, b) DSA_OBS_CONCAT_INNER(a, b)

#define DSA_OBS_PHASE(name) \
  ::dsa::obs::ScopedPhase DSA_OBS_CONCAT(dsa_obs_phase_, __LINE__)(name)

}  // namespace dsa::obs

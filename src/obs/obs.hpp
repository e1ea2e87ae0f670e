// Master switch of the observability layer (src/obs): the metrics registry,
// the live phase stacks (obs/profiler.hpp) and the trace sink all key off
// the one runtime flag here; starting telemetry or a trace capture sets it.
//
// `enabled()` reads one relaxed atomic bool (default false). Instrumented
// code checks it once per coarse unit of work (per simulation run, per
// sweep task) and aggregates locally in between, so a disabled binary pays
// a branch per run, not per round. Measured on `dsa_cli sweep`, 7
// alternating runs per configuration: the disabled path's median was no
// slower than a build with the instrumentation compiled out, within a
// run-to-run spread (4-17%) too wide to resolve 2% (EXPERIMENTS.md,
// "Observability overhead"), so there is one build.
//
// Determinism contract (enforced by ObsDeterminism tests): nothing in this
// layer touches RNG state or feeds back into simulation arithmetic. Sweep
// outputs are byte-identical with observability on, off, and at any thread
// count; only wall-clock readings differ between runs.
#pragma once

#include <atomic>

namespace dsa::obs {

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// True when instrumentation should record. One relaxed load; safe to call
/// from any thread at any time.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flips the global switch. Typically done once at process start (CLI flag,
/// bench banner) before any worker threads observe anything.
inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

}  // namespace dsa::obs

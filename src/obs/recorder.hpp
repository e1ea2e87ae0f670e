// Simulation flight recorder: structured per-round events captured inside
// the simulators and flushed once per run, so any workload (bench, CLI,
// scenario job) can be replayed into paper-figure tables after the fact.
//
// Design rules, inherited from the obs layer (obs.hpp):
//
//  * The recorder never touches RNG state and never feeds back into
//    simulation arithmetic — sim outputs are bitwise-identical with
//    recording off, on, and at any thread count (RecorderDeterminism
//    tests).
//  * Hot loops never touch a lock or an atomic: each engine run owns a
//    plain RunCapture buffer (level latched once at run start) and appends
//    events locally; the buffer is flushed into the global Recorder under
//    its mutex exactly once, when the run finishes.
//  * Files are written through util::atomic_write (never torn), as JSONL
//    (one typed object per line, parseable by util::json and `dsa_cli
//    report`).
//
// Levels: the `record[=rounds|full]` token of DSA_OBS (obs/config.hpp)
// picks the level, and every round (or tick) is recorded. "rounds"
// captures run headers and end-of-run summaries plus per-round aggregates;
// "full" adds per-decision detail (partner selections, stranger gifts,
// choke decisions, piece completions). Recording headers carry
// `"stride":1`, the only value a reader accepts.
//
// Determinism of the recording itself: snapshot() returns events in a
// canonical sort order (run key first), so as long as run keys are unique —
// which per-item seed derivation guarantees for every sweep — the saved
// bytes are independent of thread scheduling.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace dsa::obs {

/// How much the recorder captures. Order matters: each level is a superset
/// of the previous one.
enum class RecordLevel : int { kOff = 0, kRounds = 1, kFull = 2 };

[[nodiscard]] const char* to_string(RecordLevel level) noexcept;

/// Parses "off" | "rounds" | "full"; throws std::invalid_argument otherwise.
[[nodiscard]] RecordLevel parse_record_level(const std::string& text);

/// Event vocabulary. The `value` slots are kind-specific; the meanings here
/// are the schema contract between the engines and obs/report.
enum class EventKind : std::uint8_t {
  /// One per engine run. label = "round"|"swarm", detail = context tag,
  /// value = {peers, rounds (or max_ticks), churn_rate (or piece_count),
  /// engine (1 for the round model's engine; 0 in recordings made by the
  /// former dense engine; unused for swarm)}.
  kRun = 0,
  /// Round-model per-round aggregate (rounds level). time = round, value =
  /// {mean round throughput, peers replaced so far}.
  kRound,
  /// Round-model selection outcome (full). actor = acting peer,
  /// value = {candidates, partners kept, strangers contacted, lanes}.
  kSelect,
  /// One selected partner (full). actor -> peer,
  /// value = {amount granted (pre intake cap), window bandwidth received
  /// from the partner — the reciprocation signal}.
  kPartner,
  /// One stranger contact (full). actor -> peer,
  /// value = {gift amount; 0.0 is a visible defection}.
  kStranger,
  /// Round-model end-of-run peer summary (rounds level). actor = peer,
  /// label = protocol description, value = {capacity (final), mean
  /// per-round throughput — exactly SimulationOutcome::peer_throughput}.
  kPeer,
  /// One PRA quantification outcome (any level). actor = design-space
  /// protocol id, label = protocol description, value = {performance
  /// (normalized), robustness, aggressiveness, raw performance}.
  kPra,
  /// Swarm choke decision (full): one per unchoked peer per choke round.
  /// actor = chooser, peer = unchoked peer, value = {1 regular slot,
  /// 2 optimistic slot}.
  kChoke,
  /// Swarm piece completion (full). actor = receiver,
  /// peer = sender, value = {piece index, pieces held after}.
  kPiece,
  /// Swarm end-of-run leecher summary (rounds level). actor = leecher index
  /// (0-based, seeder excluded), label = client variant,
  /// value = {capacity KBps, completion time s (< 0 = unfinished),
  /// uploaded KB, downloaded KB}.
  kLeecher,
  /// One run_mixed_swarm experiment (rounds level). label = "A|B" variant
  /// names, detail = context tag, value = {count_a, total leechers,
  /// max_ticks}.
  kMixedSwarm,
  /// A fault-plan event striking the swarm (rounds level). time = tick,
  /// actor = engine peer index (0 = seeder, leecher l at l + 1),
  /// label = "crash" | "outage_begin" | "outage_end".
  /// crash: value = {downtime ticks, pieces wiped}. outage_begin:
  /// value = {window end tick}. outage_end: value = {ticks the seeder was
  /// dark}.
  kFault,
};

/// The last EventKind: loops over every kind run from kRun up to and
/// including it. A new kind goes before it or replaces it here.
inline constexpr EventKind kLastEventKind = EventKind::kFault;

[[nodiscard]] const char* to_string(EventKind kind) noexcept;

/// Inverse of to_string(EventKind); throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] EventKind parse_event_kind(const std::string& text);

/// One recorded event. `run` is the run key (the simulation seed), which
/// per-item seed derivation keeps unique per run within a sweep.
struct Event {
  EventKind kind = EventKind::kRun;
  std::uint64_t run = 0;
  std::uint32_t time = 0;
  std::uint32_t actor = kNoIndex;
  std::uint32_t peer = kNoIndex;
  std::array<double, 4> value{{0.0, 0.0, 0.0, 0.0}};
  std::string label;
  std::string detail;

  static constexpr std::uint32_t kNoIndex = 0xffffffffu;
};

/// The process-wide event store. Engines never touch it directly in hot
/// loops — they go through RunCapture below.
class Recorder {
 public:
  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  static Recorder& global();

  /// Sets the level. Like obs::set_enabled, flip this once before the runs
  /// you want captured.
  void configure(RecordLevel level);

  [[nodiscard]] RecordLevel level() const noexcept {
    return static_cast<RecordLevel>(level_.load(std::memory_order_relaxed));
  }

  /// Free-form provenance tag stamped into kRun / kMixedSwarm events
  /// (e.g. "fig9a"). Reports group series by it.
  void set_context(std::string context);
  [[nodiscard]] std::string context() const;

  /// Takes one run's buffered events (called by RunCapture::flush).
  void append(std::vector<Event>&& events);

  /// Canonically sorted copy of everything recorded so far.
  [[nodiscard]] std::vector<Event> snapshot() const;
  [[nodiscard]] std::size_t event_count() const;

  /// Drops all events (level/context stay).
  void reset();

  /// Writes the snapshot as recording JSONL via util::atomic_write. Throws
  /// std::runtime_error on I/O failure.
  void save(const std::filesystem::path& path) const;

 private:
  mutable std::mutex mutex_;
  std::atomic<int> level_{0};
  std::string context_;
  std::vector<Event> events_;
};

/// Thread-local recording suppression for bulk inner simulations: a PRA
/// tournament runs ~1e5 sims per sweep, and recording each one at rounds
/// level would buffer millions of events nobody reports on — the sweep's
/// figure-relevant output is the per-protocol kPra events emitted after
/// quantification. The swarming model wraps its tournament sims in this
/// scope; RunCapture then latches kOff for those runs. Purely an obs-side
/// filter: sim outputs are unaffected.
class SuppressScope {
 public:
  SuppressScope();
  ~SuppressScope();
  SuppressScope(const SuppressScope&) = delete;
  SuppressScope& operator=(const SuppressScope&) = delete;

  /// True while any SuppressScope is alive on this thread.
  static bool active() noexcept;

 private:
  bool previous_;
};

/// Per-run capture buffer: latches level/context once at run start,
/// then appends to a plain vector. Flushes to the Recorder exactly once —
/// explicitly via flush() or on destruction.
class RunCapture {
 public:
  explicit RunCapture(Recorder& recorder)
      : recorder_(&recorder),
        level_(SuppressScope::active() ? RecordLevel::kOff : recorder.level()) {
    if (level_ != RecordLevel::kOff) context_ = recorder.context();
  }
  ~RunCapture() { flush(); }
  RunCapture(const RunCapture&) = delete;
  RunCapture& operator=(const RunCapture&) = delete;

  /// Level guards for instrumentation sites.
  [[nodiscard]] bool rounds() const noexcept {
    return level_ >= RecordLevel::kRounds;
  }
  [[nodiscard]] bool full() const noexcept {
    return level_ == RecordLevel::kFull;
  }

  [[nodiscard]] const std::string& context() const noexcept {
    return context_;
  }

  void emit(Event event) { events_.push_back(std::move(event)); }

  void flush() {
    if (!events_.empty()) recorder_->append(std::move(events_));
    events_.clear();
  }

 private:
  Recorder* recorder_;
  RecordLevel level_;
  std::string context_;
  std::vector<Event> events_;
};

/// Canonical event ordering: (run, kind, time, actor, peer, label, detail).
/// snapshot()/save() apply it so recordings are independent of thread
/// scheduling whenever run keys are unique.
[[nodiscard]] bool event_less(const Event& a, const Event& b) noexcept;

/// Serializes the (already sorted) events as the recording JSONL: a header
/// line {"type":"recording","schema":1,...,"stride":1,...} followed by one
/// event per line.
/// Doubles use util::exact_number and the 64-bit run key is a decimal
/// string (JSON numbers only carry 53 bits), so a parse -> serialize round
/// trip is byte-identical.
[[nodiscard]] std::string to_recording_jsonl(const std::vector<Event>& events,
                                             RecordLevel level);

}  // namespace dsa::obs

// Figure-grade aggregation over flight recordings (obs/recorder.hpp).
//
// The layer is split in two so the figure benches and `dsa_cli report`
// render *the same bytes* from a recording:
//
//  * extraction — typed series pulled out of a recording's event stream
//    (fig5_robustness_by_policy, encounter_series_from_events, ...). The
//    Fig. 5 extractor also has a twin over PraRecord rows, the reference a
//    golden test compares the event path against.
//  * rendering — pure functions from a typed series to the exact table text
//    the corresponding bench has always printed. Byte-for-byte equality of
//    the two paths is enforced by the recorder golden tests.
//
// Lives in its own library (dsa_report) rather than dsa_obs because the
// extractors decode protocol ids and client variants — dsa_obs must stay
// below dsa_swarming/dsa_swarm in the layering.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "swarming/pra_dataset.hpp"
#include "util/csv.hpp"

namespace dsa::report {

// ----------------------------------------------------- scenario results

/// Renders a merged scenario result as an aligned text table (header,
/// separator, rows) — the `dsa_cli query --table` view of a serve answer.
/// Pure function of the table's cells, so it is as deterministic as the
/// CSV it mirrors.
std::string render_csv_table(const util::CsvTable& table);

/// A parsed recording file: the header's capture level plus the events in
/// file order (which save() wrote canonically sorted).
struct Recording {
  obs::RecordLevel level = obs::RecordLevel::kOff;
  std::vector<obs::Event> events;
};

/// Parses a recording JSONL written by obs::Recorder::save. Throws
/// std::runtime_error (or util::json::ParseError) on unreadable files,
/// missing headers, a header stride other than 1, or unknown event kinds.
/// Serializing the result back through obs::to_recording_jsonl reproduces
/// the input bytes.
Recording load_recording(const std::filesystem::path& path);

// ---------------------------------------------------------------- Fig. 5

/// Robustness samples per stranger policy (Periodic, WhenNeeded, Defect),
/// from the kPra events of a recording, in protocol-id order; the h = 0
/// singleton is skipped, exactly like the Fig. 5 bench.
std::array<std::vector<double>, 3> fig5_robustness_by_policy(
    std::span<const obs::Event> events);

/// The same series straight from PRA records (the golden reference).
std::array<std::vector<double>, 3> fig5_robustness_by_policy(
    std::span<const swarming::PraRecord> records);

/// The rendered Fig. 5 tables plus the summary statistics the bench's
/// verdict lines test.
struct Fig5Tables {
  std::string text;  // CCDF table + per-policy summary table
  std::array<double, 3> mean_r{};
  std::array<double, 3> max_r{};
};

/// Renders the CCDF table and per-policy summary exactly as
/// bench_fig5_stranger_ccdf prints them. Policies with no samples render
/// empty-distribution rows ("-") instead of throwing.
Fig5Tables render_fig5(const std::array<std::vector<double>, 3>& by_policy);

// ---------------------------------------------------------------- Fig. 9

/// One client-mix point of a competitive-encounter series.
struct EncounterPoint {
  double fraction = 0.0;  // realized fraction: count_a / total
  std::size_t count_a = 0;
  double mean_a = 0.0, ci_a = 0.0;
  double mean_b = 0.0, ci_b = 0.0;
  bool has_a = false, has_b = false;
};

/// One Fig. 9 panel: every mixed-swarm experiment sharing a (context,
/// variant-pair) tag, fractions ascending.
struct EncounterSeries {
  std::string title;      // the recording context, e.g. "Fig. 9(a): ..."
  std::string variant_a;  // client names split from the "A|B" label
  std::string variant_b;
  std::vector<EncounterPoint> points;
};

/// Rebuilds encounter series from kMixedSwarm + kLeecher events: groups by
/// (context, variant pair) ordered by first run key, fractions by count_a
/// ascending, repetitions by run key ascending — the same iteration order
/// the Fig. 9 bench uses, so means and confidence intervals match bitwise.
std::vector<EncounterSeries> encounter_series_from_events(
    std::span<const obs::Event> events);

/// Renders one panel exactly as bench_fig9_encounters prints it: a blank
/// line, the title, and the fraction/time table.
std::string render_encounter_series(const EncounterSeries& series);

// ------------------------------------------------- generic report tables

/// Event-count / run-count overview of a recording.
std::string render_summary(const Recording& recording);

/// Mean P/R/A by ranking function and by allocation policy (Figs. 6-7),
/// from kPra events.
std::string render_pra_breakdowns(std::span<const obs::Event> events);

/// Win matrix between protocol/variant groups (Figs. 1/9 flavor): for every
/// run whose kPeer (round model) or kLeecher (swarm) summaries span exactly
/// two labels, the higher group-mean throughput (or lower group-mean
/// download time) wins; cells count wins across runs.
std::string render_win_matrix(std::span<const obs::Event> events);

/// Download-time summary per client variant from kLeecher events (Fig. 10
/// flavor): n, completed, mean/p90/max seconds per label.
std::string render_swarm_times(std::span<const obs::Event> events);

// ------------------------------------------------- failure reports (explore)

/// Chronological table of a run's kFault events (crashes, seeder outage
/// begin/end) with per-event detail — the "what struck when" half of a
/// worst-case failure report. Renders a placeholder note when the events
/// hold no faults.
std::string render_fault_timeline(std::span<const obs::Event> events);

/// Per-leecher impact table contrasting a worst-schedule run against the
/// fault-free baseline, from each run's kLeecher events: capacity, both
/// download times, and the delta, plus mean-delta summary lines. Leechers
/// that never finished render "-" and are excluded from the means.
std::string render_fault_impact(std::span<const obs::Event> worst,
                                std::span<const obs::Event> baseline);

// ------------------------------------------------- health timelines (obs)

/// Renders the per-interval swarm-health timelines of one telemetry
/// time-series (obs::load_timeseries): one table per sketch metric, a row
/// per sample carrying the sketch's count plus its quantile/moment
/// columns — the `dsa_cli report --health` view. Pure function of the
/// samples; renders a placeholder note when no sample carries sketches.
std::string render_health_timeline(
    std::span<const obs::StatusSample> samples);

}  // namespace dsa::report

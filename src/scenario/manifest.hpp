// Scenario manifest I/O, extracted from the runner so resident frontends
// (the `dsa_cli serve` daemon's result cache) can read, verify, and append
// the same JSONL format the crash-tolerant runner writes.
//
// Format — one JSON document per newline-terminated line:
//   line 1:  {"scenario":...,"kind":...,"spec_fp":...,"jobs":N,"columns":[..]}
//   line 2+: {"job":i,"fp":"<16 hex>","ms":X,"rows":[["..."],...]}
// Only newline-terminated lines count; a torn tail from a kill mid-write is
// untrusted. Every line is verified against the current plan before being
// trusted, and load_manifest() reports *why* a file was distrusted as a
// typed reason (ManifestTrust) instead of silently returning an empty
// resume state.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "scenario/plan.hpp"
#include "util/json.hpp"

namespace dsa::scenario {

/// Rows one job contributes to the merged output, in job_columns order.
using JobRows = std::vector<std::vector<std::string>>;

/// `value` as 16 lowercase hex digits — the wire form of every fingerprint
/// in manifests and the serve cache.
[[nodiscard]] std::string hex16(std::uint64_t value);

/// Why a manifest's contents were (or were not) trusted. Ordered by where
/// in the file the anomaly was found; the *first* anomaly wins, and
/// everything before it remains usable as a valid prefix.
enum class ManifestTrust {
  kTrusted,        // every byte parsed and verified against the plan
  kMissing,        // no file (or unreadable) — nothing to resume
  kForeignHeader,  // header absent, unparsable, or for a different plan
  kBadJobLine,     // a job line was unparsable or failed verification
  kTornTail,       // trailing bytes without a newline (killed mid-write)
};

[[nodiscard]] const char* to_string(ManifestTrust trust);

/// Resume state recovered from a manifest file.
struct ManifestData {
  /// Bytes of trusted, newline-terminated lines. The runner truncates the
  /// file to this length before appending so it never chases a torn tail.
  std::size_t valid_bytes = 0;
  bool header_ok = false;
  ManifestTrust trust = ManifestTrust::kMissing;
  /// Human-readable detail for any trust != kTrusted (which line, what was
  /// wrong). Empty when trusted.
  std::string distrust_reason;
  std::vector<bool> have;       // per plan job: rows recovered?
  std::vector<JobRows> rows;    // per plan job: the recovered rows
  std::vector<double> ms;       // per-job wall time; -1 when the line had none
};

/// The header line for `plan` (no trailing newline).
[[nodiscard]] std::string manifest_header_line(const Plan& plan);

/// True when a parsed header line (a manifest's first line, or an output's
/// provenance sidecar) describes `plan`: same spec fingerprint, job count
/// and job columns. The scenario name and the recording settings are not
/// compared.
[[nodiscard]] bool header_matches(const util::json::Value& value,
                                  const Plan& plan);

/// One completed-job line (no trailing newline). wall_ms is provenance
/// (latency summaries), never identity: resume validation ignores it, and
/// it feeds no fingerprint or merged cell.
[[nodiscard]] std::string manifest_job_line(const Job& job,
                                            const JobRows& rows,
                                            double wall_ms);

/// A structurally-parsed job line, before any plan verification. The serve
/// cache stores these lines keyed by fingerprint alone, so it parses them
/// without a plan in hand.
struct ParsedJobLine {
  std::size_t index = 0;   // "job": position in the originating plan
  std::string fp_hex;      // "fp": 16 lowercase hex digits
  double ms = -1.0;        // "ms": wall time, -1 when absent
  JobRows rows;
};

/// Parses one already-JSON-parsed line as a job line. Returns nullopt when
/// the shape is wrong (missing/ill-typed fields, non-string cells). Does
/// NOT verify fingerprints or row widths against any plan.
[[nodiscard]] std::optional<ParsedJobLine> parse_job_line(
    const util::json::Value& value);

/// Loads and verifies `path` against `plan`. Never throws on bad content:
/// the valid prefix is returned and `trust` + `distrust_reason` say why the
/// rest (if any) was rejected. A foreign or unparsable header distrusts the
/// whole file (valid_bytes == 0, nothing recovered).
[[nodiscard]] ManifestData load_manifest(const Plan& plan,
                                         const std::filesystem::path& path);

}  // namespace dsa::scenario

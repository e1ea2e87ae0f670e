#include "scenario/manifest.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/recorder.hpp"
#include "util/fingerprint.hpp"

namespace dsa::scenario {

namespace json = util::json;

std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buffer, 16);
}

const char* to_string(ManifestTrust trust) {
  switch (trust) {
    case ManifestTrust::kTrusted: return "trusted";
    case ManifestTrust::kMissing: return "missing";
    case ManifestTrust::kForeignHeader: return "foreign-header";
    case ManifestTrust::kBadJobLine: return "bad-job-line";
    case ManifestTrust::kTornTail: return "torn-tail";
  }
  return "unknown";
}

std::string manifest_header_line(const Plan& plan) {
  std::string line = "{\"scenario\":\"" + json::escape(plan.spec.name) +
                     "\",\"kind\":\"" + to_string(plan.spec.kind) +
                     "\",\"spec_fp\":\"" + hex16(plan.spec_fingerprint) +
                     "\",\"jobs\":" + std::to_string(plan.jobs.size()) +
                     ",\"columns\":[";
  for (std::size_t i = 0; i < plan.job_columns.size(); ++i) {
    if (i > 0) line += ',';
    line += '"' + json::escape(plan.job_columns[i]) + '"';
  }
  line += "]";
  // Provenance only: the flight-recorder settings active while the jobs
  // ran. header_matches() ignores it, so a resume with different recording
  // settings still reuses finished jobs (recording never changes results).
  const obs::Recorder& recorder = obs::Recorder::global();
  line += std::string(",\"record\":{\"level\":\"") +
          obs::to_string(recorder.level()) +
          "\",\"stride\":1}";
  line += "}";
  return line;
}

std::string manifest_job_line(const Job& job, const JobRows& rows,
                              double wall_ms) {
  std::string line = "{\"job\":" + std::to_string(job.index) + ",\"fp\":\"" +
                     hex16(job.fingerprint) + "\",\"ms\":" +
                     util::exact_number(wall_ms) + ",\"rows\":[";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) line += ',';
    line += '[';
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) line += ',';
      line += '"' + json::escape(rows[r][c]) + '"';
    }
    line += ']';
  }
  line += "]}";
  return line;
}

std::optional<ParsedJobLine> parse_job_line(const json::Value& value) {
  if (value.type != json::Value::Type::kObject) return std::nullopt;
  const json::Value* index = value.find("job");
  if (index == nullptr || index->type != json::Value::Type::kNumber) {
    return std::nullopt;
  }
  const double raw_index = index->number;
  if (raw_index < 0 || std::floor(raw_index) != raw_index) return std::nullopt;
  const json::Value* fp = value.find("fp");
  if (fp == nullptr || fp->type != json::Value::Type::kString) {
    return std::nullopt;
  }
  const json::Value* rows = value.find("rows");
  if (rows == nullptr || rows->type != json::Value::Type::kArray) {
    return std::nullopt;
  }
  ParsedJobLine parsed;
  parsed.index = static_cast<std::size_t>(raw_index);
  parsed.fp_hex = fp->text;
  parsed.rows.reserve(rows->items.size());
  for (const json::Value& row : rows->items) {
    if (row.type != json::Value::Type::kArray) return std::nullopt;
    std::vector<std::string> cells;
    cells.reserve(row.items.size());
    for (const json::Value& cell : row.items) {
      if (cell.type != json::Value::Type::kString) return std::nullopt;
      cells.push_back(cell.text);
    }
    parsed.rows.push_back(std::move(cells));
  }
  // Optional wall time (absent in pre-latency manifests; those resume fine).
  if (const json::Value* ms = value.find("ms");
      ms != nullptr && ms->type == json::Value::Type::kNumber &&
      ms->number >= 0.0) {
    parsed.ms = ms->number;
  }
  return parsed;
}

bool header_matches(const json::Value& value, const Plan& plan) {
  if (value.type != json::Value::Type::kObject) return false;
  const json::Value* fp = value.find("spec_fp");
  if (fp == nullptr || fp->type != json::Value::Type::kString ||
      fp->text != hex16(plan.spec_fingerprint)) {
    return false;
  }
  const json::Value* jobs = value.find("jobs");
  if (jobs == nullptr || jobs->type != json::Value::Type::kNumber ||
      jobs->number != static_cast<double>(plan.jobs.size())) {
    return false;
  }
  const json::Value* columns = value.find("columns");
  if (columns == nullptr || columns->type != json::Value::Type::kArray ||
      columns->items.size() != plan.job_columns.size()) {
    return false;
  }
  for (std::size_t i = 0; i < plan.job_columns.size(); ++i) {
    if (columns->items[i].type != json::Value::Type::kString ||
        columns->items[i].text != plan.job_columns[i]) {
      return false;
    }
  }
  return true;
}

namespace {

/// Validates one job line against the plan; on success stores its rows and
/// returns empty, otherwise returns the reason it was rejected.
std::string accept_job_line(const json::Value& value, const Plan& plan,
                            ManifestData& data) {
  const std::optional<ParsedJobLine> parsed = parse_job_line(value);
  if (!parsed) return "not a well-formed job line";
  if (parsed->index >= plan.jobs.size()) {
    return "job index " + std::to_string(parsed->index) +
           " out of range (plan has " + std::to_string(plan.jobs.size()) +
           " jobs)";
  }
  if (data.have[parsed->index]) {
    // Duplicates are not trusted.
    return "duplicate entry for job " + std::to_string(parsed->index);
  }
  if (parsed->fp_hex != hex16(plan.jobs[parsed->index].fingerprint)) {
    return "fingerprint mismatch for job " + std::to_string(parsed->index) +
           " (manifest " + parsed->fp_hex + ", plan " +
           hex16(plan.jobs[parsed->index].fingerprint) + ")";
  }
  for (const std::vector<std::string>& row : parsed->rows) {
    if (row.size() != plan.job_columns.size()) {
      return "job " + std::to_string(parsed->index) + " row width " +
             std::to_string(row.size()) + " != " +
             std::to_string(plan.job_columns.size()) + " columns";
    }
  }
  data.have[parsed->index] = true;
  data.rows[parsed->index] = std::move(parsed->rows);
  data.ms[parsed->index] = parsed->ms;
  return {};
}

}  // namespace

ManifestData load_manifest(const Plan& plan,
                           const std::filesystem::path& path) {
  ManifestData data;
  data.have.assign(plan.jobs.size(), false);
  data.rows.resize(plan.jobs.size());
  data.ms.assign(plan.jobs.size(), -1.0);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    data.trust = ManifestTrust::kMissing;
    data.distrust_reason = "no manifest at " + path.string();
    return data;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();

  data.trust = ManifestTrust::kTrusted;
  std::size_t pos = 0;
  std::size_t line_number = 0;
  bool first = true;
  while (pos < contents.size()) {
    const std::size_t newline = contents.find('\n', pos);
    if (newline == std::string::npos) {
      // Torn tail from a kill mid-write — untrusted, truncated by the
      // caller before appending.
      data.trust = ManifestTrust::kTornTail;
      data.distrust_reason = std::to_string(contents.size() - pos) +
                             " trailing byte(s) without a newline after line " +
                             std::to_string(line_number);
      break;
    }
    ++line_number;
    const std::string line = contents.substr(pos, newline - pos);
    json::Value value;
    try {
      value = json::parse(line, "<manifest>");
    } catch (const std::exception& error) {
      data.trust = first ? ManifestTrust::kForeignHeader
                         : ManifestTrust::kBadJobLine;
      data.distrust_reason = "line " + std::to_string(line_number) +
                             " is not valid JSON: " + error.what();
      break;
    }
    if (first) {
      if (!header_matches(value, plan)) {
        data.trust = ManifestTrust::kForeignHeader;
        data.distrust_reason =
            "header does not match the plan (expected spec_fp " +
            hex16(plan.spec_fingerprint) + ", " +
            std::to_string(plan.jobs.size()) + " jobs)";
        break;
      }
      data.header_ok = true;
      first = false;
    } else if (std::string reason = accept_job_line(value, plan, data);
               !reason.empty()) {
      data.trust = ManifestTrust::kBadJobLine;
      data.distrust_reason =
          "line " + std::to_string(line_number) + ": " + reason;
      break;
    }
    pos = newline + 1;
    data.valid_bytes = pos;
  }
  if (first && data.trust == ManifestTrust::kTrusted) {
    // Zero complete lines (empty file): nothing to verify a header against.
    data.trust = ManifestTrust::kForeignHeader;
    data.distrust_reason = "manifest has no header line";
  }
  if (!data.header_ok) {
    // Foreign or corrupt manifest: trust nothing.
    data.valid_bytes = 0;
    data.have.assign(plan.jobs.size(), false);
    for (JobRows& rows : data.rows) rows.clear();
    data.ms.assign(plan.jobs.size(), -1.0);
  }
  return data;
}

}  // namespace dsa::scenario

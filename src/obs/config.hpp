// The one observability switch. Every runtime obs layer is steered by one
// comma-separated spec in the DSA_OBS environment variable, and each
// enabled layer writes one artifact under dir, named after the dsa_cli
// command or bench (<name>):
//
//   metrics               METRICS_<name>.jsonl
//   status                <run>.status.json + STATUS_<run>.timeseries.jsonl
//   prof                  PROF_<name>.folded
//   trace                 TRACE_<name>.json
//   record[=rounds|full]  RECORD_<name>.jsonl (bare `record` = rounds)
//   dir=PATH              artifact directory (default results)
//
// Unset or empty turns everything off. Parsing is strict: an unknown,
// repeated or empty token throws naming DSA_OBS and the token, and so does
// any of the per-layer variables the spec replaced if it is still set. The
// sampling constants are the struct defaults (heartbeat every 1000 ms,
// profiler at 97 Hz); tests set the fields directly.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

#include "obs/recorder.hpp"

namespace dsa::obs {

struct Config {
  bool metrics = false;
  bool status = false;
  bool prof = false;
  bool trace = false;
  RecordLevel record = RecordLevel::kOff;
  std::filesystem::path dir = "results";

  /// Throws std::runtime_error on an unknown, repeated or empty token.
  [[nodiscard]] static Config parse(std::string_view spec);
  /// Parses DSA_OBS; throws naming any removed variable that is set.
  [[nodiscard]] static Config from_environment();
  /// Canonical spec (layers in grammar order, then dir=); round-trips.
  [[nodiscard]] std::string spec() const;
};

/// The single start/finish path, opened by dsa_cli's main and the benches'
/// MetricsScope: the constructor applies a Config to the process-wide
/// layers; finish() writes each enabled layer's artifact (write errors go
/// to stderr, never fail the run) and turns every layer back off. With all
/// layers off the hot paths still pay one relaxed load per coarse unit.
class Session {
 public:
  Session(Config config, std::string_view name);
  ~Session() { finish(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Idempotent; also run by the destructor.
  void finish();
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  /// `<dir>/<prefix><name><extension>`, e.g. artifact("PROF_", ".folded").
  [[nodiscard]] std::filesystem::path artifact(
      std::string_view prefix, std::string_view extension) const;

  Config config_;
  std::string name_;
  bool finished_ = false;
};

}  // namespace dsa::obs

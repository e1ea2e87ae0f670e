#include "obs/config.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/flame/flame.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace dsa::obs {

namespace {

// The per-layer variables DSA_OBS replaced, with the spec to use instead.
constexpr std::pair<const char*, const char*> kRemoved[] = {
    {"DSA_METRICS", "metrics"},
    {"DSA_METRICS_DIR", "metrics,dir=PATH"},
    {"DSA_STATUS", "status"},
    {"DSA_STATUS_INTERVAL_MS", "status (heartbeats every 1000 ms)"},
    {"DSA_STATUS_DIR", "status,dir=PATH"},
    {"DSA_PROF", "prof"},
    {"DSA_PROF_HZ", "prof (samples at 97 Hz)"},
    {"DSA_PROF_OUT", "prof,dir=PATH"},
    {"DSA_RECORD", "record[=rounds|full]"},
    {"DSA_RECORD_STRIDE", "record (every round)"},
    {"DSA_RECORD_OUT", "record,dir=PATH"},
};

}  // namespace

Config Config::parse(std::string_view spec) {
  Config config;
  bool seen_record = false;
  bool seen_dir = false;
  for (std::size_t begin = 0; !spec.empty() && begin <= spec.size();) {
    const std::size_t end = std::min(spec.find(',', begin), spec.size());
    const std::string_view token = spec.substr(begin, end - begin);
    begin = end + 1;
    const auto fail = [&](const std::string& why) {
      throw std::runtime_error("DSA_OBS token '" + std::string(token) +
                               "' " + why);
    };
    const auto once = [&](bool& seen) {
      if (seen) fail("is repeated");
      seen = true;
    };
    if (token.empty()) {
      throw std::runtime_error(
          "DSA_OBS='" + std::string(spec) + "' has an empty token");
    } else if (token == "metrics") {
      once(config.metrics);
    } else if (token == "status") {
      once(config.status);
    } else if (token == "prof") {
      once(config.prof);
    } else if (token == "trace") {
      once(config.trace);
    } else if (token == "record" || token == "record=rounds" ||
               token == "record=full") {
      once(seen_record);
      config.record =
          token == "record=full" ? RecordLevel::kFull : RecordLevel::kRounds;
    } else if (token.size() > 4 && token.substr(0, 4) == "dir=") {
      once(seen_dir);
      config.dir = std::string(token.substr(4));
    } else {
      fail("is invalid: expected metrics|status|prof|trace|"
           "record[=rounds|full]|dir=PATH");
    }
  }
  return config;
}

Config Config::from_environment() {
  for (const auto& [name, use] : kRemoved) {
    if (std::getenv(name) != nullptr) {
      throw std::runtime_error(std::string(name) +
                               " is no longer read; use DSA_OBS=" + use);
    }
  }
  const char* spec = std::getenv("DSA_OBS");
  return parse(spec == nullptr ? "" : spec);
}

std::string Config::spec() const {
  const std::pair<bool, const char*> tokens[] = {
      {metrics, "metrics,"},
      {status, "status,"},
      {prof, "prof,"},
      {trace, "trace,"},
      {record == RecordLevel::kRounds, "record,"},
      {record == RecordLevel::kFull, "record=full,"},
  };
  std::string out;
  for (const auto& [on, token] : tokens) {
    if (on) out += token;
  }
  return out + "dir=" + dir.string();
}

Session::Session(Config config, std::string_view name)
    : config_(std::move(config)), name_(sanitize_run_name(name)) {
  if (config_.metrics) set_enabled(true);
  // Configured even when off, so a command that forces heartbeats on (the
  // serve daemon) writes them under dir= too.
  Telemetry::global().configure({.enabled = config_.status,
                                 .dir = config_.dir});
  if (config_.prof) {
    FlameSampler::global().configure(
        {.enabled = true, .out = artifact("PROF_", ".folded")});
  }
  if (config_.trace) TraceSink::global().start(artifact("TRACE_", ".json"));
  if (config_.record != RecordLevel::kOff) {
    Recorder::global().configure(config_.record);
    Recorder::global().set_context(name_);
  }
}

std::filesystem::path Session::artifact(std::string_view prefix,
                                        std::string_view extension) const {
  return config_.dir / (std::string(prefix) + name_ + std::string(extension));
}

void Session::finish() {
  if (finished_) return;
  finished_ = true;
  const auto write = [this](bool on, const char* prefix, const char* extension,
                            auto&& writer) {
    if (!on) return;
    const std::filesystem::path path = artifact(prefix, extension);
    try {
      writer(path);
      std::fprintf(stderr, "obs: wrote %s\n", path.string().c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "obs: %s\n", error.what());
    }
  };
  write(config_.trace, "TRACE_", ".json",
        [](const auto&) { TraceSink::global().stop_and_write(); });
  write(config_.prof, "PROF_", ".folded", [](const auto&) {
    FlameSampler::global().stop_and_write();
    FlameSampler::global().configure({});
  });
  write(config_.record != RecordLevel::kOff, "RECORD_", ".jsonl",
        [](const auto& path) {
          Recorder::global().save(path);
          Recorder::global().configure(RecordLevel::kOff);
        });
  write(config_.metrics, "METRICS_", ".jsonl", [](const auto& path) {
    Registry::global().snapshot().save_jsonl(path);
  });
  if (config_.status) Telemetry::global().configure({});
  set_enabled(false);
}

}  // namespace dsa::obs

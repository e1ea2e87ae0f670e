#include "obs/recorder.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "util/fingerprint.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace dsa::obs {

const char* to_string(RecordLevel level) noexcept {
  switch (level) {
    case RecordLevel::kOff:
      return "off";
    case RecordLevel::kRounds:
      return "rounds";
    case RecordLevel::kFull:
      return "full";
  }
  return "off";
}

RecordLevel parse_record_level(const std::string& text) {
  if (text == "off") return RecordLevel::kOff;
  if (text == "rounds") return RecordLevel::kRounds;
  if (text == "full") return RecordLevel::kFull;
  throw std::invalid_argument("unknown record level '" + text +
                              "' (expected off|rounds|full)");
}

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kRun:
      return "run";
    case EventKind::kRound:
      return "round";
    case EventKind::kSelect:
      return "select";
    case EventKind::kPartner:
      return "partner";
    case EventKind::kStranger:
      return "stranger";
    case EventKind::kPeer:
      return "peer";
    case EventKind::kPra:
      return "pra";
    case EventKind::kChoke:
      return "choke";
    case EventKind::kPiece:
      return "piece";
    case EventKind::kLeecher:
      return "leecher";
    case EventKind::kMixedSwarm:
      return "mixed_swarm";
    case EventKind::kFault:
      return "fault";
  }
  return "run";
}

EventKind parse_event_kind(const std::string& text) {
  for (int k = 0; k <= static_cast<int>(kLastEventKind); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (text == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown event kind '" + text + "'");
}

Recorder& Recorder::global() {
  static Recorder instance;
  return instance;
}

void Recorder::configure(RecordLevel level) {
  level_.store(static_cast<int>(level), std::memory_order_relaxed);
}

void Recorder::set_context(std::string context) {
  std::lock_guard lock(mutex_);
  context_ = std::move(context);
}

std::string Recorder::context() const {
  std::lock_guard lock(mutex_);
  return context_;
}

void Recorder::append(std::vector<Event>&& events) {
  std::lock_guard lock(mutex_);
  if (events_.empty()) {
    events_ = std::move(events);
    return;
  }
  events_.insert(events_.end(), std::make_move_iterator(events.begin()),
                 std::make_move_iterator(events.end()));
}

namespace {
thread_local bool g_suppressed = false;
}  // namespace

SuppressScope::SuppressScope() : previous_(g_suppressed) {
  g_suppressed = true;
}

SuppressScope::~SuppressScope() { g_suppressed = previous_; }

bool SuppressScope::active() noexcept { return g_suppressed; }

bool event_less(const Event& a, const Event& b) noexcept {
  return std::tie(a.run, a.kind, a.time, a.actor, a.peer, a.label, a.detail) <
         std::tie(b.run, b.kind, b.time, b.actor, b.peer, b.label, b.detail);
}

std::vector<Event> Recorder::snapshot() const {
  std::vector<Event> copy;
  {
    std::lock_guard lock(mutex_);
    copy = events_;
  }
  std::stable_sort(copy.begin(), copy.end(), event_less);
  return copy;
}

std::size_t Recorder::event_count() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

void Recorder::reset() {
  std::lock_guard lock(mutex_);
  events_.clear();
}

std::string to_recording_jsonl(const std::vector<Event>& events,
                               RecordLevel level) {
  std::ostringstream out;
  out << "{\"type\":\"recording\",\"schema\":1,\"level\":\""
      << to_string(level) << "\",\"stride\":1"
      << ",\"events\":" << events.size() << "}\n";
  for (const Event& event : events) {
    out << "{\"kind\":\"" << to_string(event.kind) << "\",\"run\":\""
        << event.run << "\",\"time\":" << event.time;
    if (event.actor != Event::kNoIndex) out << ",\"actor\":" << event.actor;
    if (event.peer != Event::kNoIndex) out << ",\"peer\":" << event.peer;
    out << ",\"value\":[" << util::exact_number(event.value[0]) << ','
        << util::exact_number(event.value[1]) << ','
        << util::exact_number(event.value[2]) << ','
        << util::exact_number(event.value[3]) << ']';
    if (!event.label.empty()) {
      out << ",\"label\":\"" << util::json::escape(event.label) << '"';
    }
    if (!event.detail.empty()) {
      out << ",\"detail\":\"" << util::json::escape(event.detail) << '"';
    }
    out << "}\n";
  }
  return std::move(out).str();
}

void Recorder::save(const std::filesystem::path& path) const {
  util::atomic_write(path, to_recording_jsonl(snapshot(), level()));
}

}  // namespace dsa::obs

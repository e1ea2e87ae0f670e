#include "fault/fault_json.hpp"

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/fingerprint.hpp"
#include "util/fs.hpp"

namespace dsa::fault {

namespace {

constexpr std::string_view kPlanKeys[] = {"type", "schema", "message_loss",
                                          "seeder_outages", "crashes"};
// Keys only schema 1 knew; see the header for how they are read.
constexpr std::string_view kRemovedKeys[] = {
    "piece_timeout_ticks", "retry_backoff_ticks", "max_backoff_ticks"};

}  // namespace

std::size_t as_size(const util::json::Cursor& cursor) {
  // as_int() already rejects non-integral numbers; this adds the sign check
  // so size_t fields get a path-named error instead of a silent wrap.
  const std::int64_t raw = cursor.as_int();
  if (raw < 0) cursor.fail("must be >= 0");
  return static_cast<std::size_t>(raw);
}

std::string fault_plan_json_fields(const FaultPlan& plan) {
  std::ostringstream out;
  out << "\"message_loss\":" << util::exact_number(plan.message_loss)
      << ",\"seeder_outages\":[";
  for (std::size_t i = 0; i < plan.seeder_outages.size(); ++i) {
    const SeederOutage& outage = plan.seeder_outages[i];
    if (i > 0) out << ',';
    out << "{\"begin_tick\":" << outage.begin_tick
        << ",\"end_tick\":" << outage.end_tick << '}';
  }
  out << "],\"crashes\":[";
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    const CrashEvent& crash = plan.crashes[i];
    if (i > 0) out << ',';
    out << "{\"leecher\":" << crash.leecher << ",\"tick\":" << crash.tick
        << ",\"downtime\":" << crash.downtime << '}';
  }
  out << ']';
  return std::move(out).str();
}

std::string to_json(const FaultPlan& plan) {
  return "{\"type\":\"fault_plan\",\"schema\":2," +
         fault_plan_json_fields(plan) + "}\n";
}

FaultPlan read_fault_plan_document(
    const util::json::Cursor& root,
    std::initializer_list<std::string_view> extra_keys) {
  if (root.key("type").as_string() != "fault_plan") {
    root.key("type").fail("expected \"fault_plan\"");
  }
  const std::int64_t schema = root.key("schema").as_int();
  if (schema != 1 && schema != 2) {
    root.key("schema").fail(
        "unsupported fault_plan schema (expected 2, or legacy 1)");
  }
  std::vector<std::string_view> allowed(std::begin(kPlanKeys),
                                        std::end(kPlanKeys));
  if (schema == 1) {
    allowed.insert(allowed.end(), std::begin(kRemovedKeys),
                   std::end(kRemovedKeys));
  }
  allowed.insert(allowed.end(), extra_keys.begin(), extra_keys.end());
  root.allow_only(allowed);
  if (const auto timeout = root.try_key("piece_timeout_ticks")) {
    if (as_size(*timeout) != 0) {
      timeout->fail(
          "piece timeouts were removed in fault_plan schema 2; a schema-1 "
          "plan must set 0");
    }
  }

  FaultPlan plan;
  if (const auto loss = root.try_key("message_loss")) {
    plan.message_loss = loss->as_double();
  }
  if (const auto outages = root.try_key("seeder_outages")) {
    for (std::size_t i = 0; i < outages->size(); ++i) {
      const util::json::Cursor entry = outages->at(i);
      entry.allow_only({"begin_tick", "end_tick"});
      SeederOutage outage;
      outage.begin_tick = as_size(entry.key("begin_tick"));
      outage.end_tick = as_size(entry.key("end_tick"));
      plan.seeder_outages.push_back(outage);
    }
  }
  if (const auto crashes = root.try_key("crashes")) {
    for (std::size_t i = 0; i < crashes->size(); ++i) {
      const util::json::Cursor entry = crashes->at(i);
      entry.allow_only({"leecher", "tick", "downtime"});
      CrashEvent crash;
      crash.leecher = as_size(entry.key("leecher"));
      crash.tick = as_size(entry.key("tick"));
      crash.downtime = as_size(entry.key("downtime"));
      plan.crashes.push_back(crash);
    }
  }
  return plan;
}

FaultPlan load_fault_plan(const std::filesystem::path& path) {
  const util::json::Value document = util::json::parse_file(path);
  const util::json::Cursor root(document, path.string());
  FaultPlan plan = read_fault_plan_document(root);
  // Validate with the loosest bounds a file can be checked against; the
  // engine re-validates with the run's real leecher count and horizon.
  plan.validate(std::numeric_limits<std::size_t>::max());
  return plan;
}

void save_fault_plan(const std::filesystem::path& path,
                     const FaultPlan& plan) {
  util::atomic_write(path, to_json(plan));
}

}  // namespace dsa::fault

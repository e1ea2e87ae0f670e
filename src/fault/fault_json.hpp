// JSON (de)serialization for FaultPlan — the interchange format between the
// worst-case explorer (src/explore), `dsa_cli swarm --fault-file`, and
// hand-written fault schedules under examples/faults/.
//
// The on-disk document is a strict schema-2 object:
//
//   {"type":"fault_plan","schema":2,"message_loss":0.0,
//    "seeder_outages":[{"begin_tick":120,"end_tick":200}],
//    "crashes":[{"leecher":3,"tick":81,"downtime":60}]}
//
// Schema 1 also carried "piece_timeout_ticks", "retry_backoff_ticks" and
// "max_backoff_ticks". Piece timeouts are gone from the engine, so a
// schema-1 document still loads when its timeout is 0 or absent (the
// backoff keys are then accepted and ignored) and is rejected, naming the
// field, when its timeout is positive. Schema 2 knows none of the three.
//
// Loading validates the plan (FaultPlan::validate with an unbounded horizon;
// the engine re-validates against the run's leecher count and max_ticks), so
// a malformed file fails with a field-named error instead of silently
// simulating garbage. Serialization uses util::exact_number for doubles,
// making a load -> save round trip byte-identical.
#pragma once

#include <cstddef>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <string_view>

#include "fault/fault_plan.hpp"
#include "util/json.hpp"

namespace dsa::fault {

/// Renders the plan's fields as the body of a JSON object (no surrounding
/// braces, no leading/trailing comma) — shared between the bare fault-plan
/// document and the explorer's counterexample format, which embeds the same
/// fields alongside its swarm block.
[[nodiscard]] std::string fault_plan_json_fields(const FaultPlan& plan);

/// The full schema-2 fault-plan document, newline-terminated.
[[nodiscard]] std::string to_json(const FaultPlan& plan);

/// A non-negative integer field; fails with the cursor's path otherwise.
[[nodiscard]] std::size_t as_size(const util::json::Cursor& cursor);

/// Reads the header and plan fields of a fault-plan document, or of a
/// superset of it: checks "type" and "schema" (2, or 1 under the legacy
/// rule above), rejects keys outside the plan's own and `extra_keys`, and
/// type- and range-checks each field with Cursor path errors. Missing
/// fields keep their defaults. The plan is not validated; the caller knows
/// the swarm it is for.
[[nodiscard]] FaultPlan read_fault_plan_document(
    const util::json::Cursor& root,
    std::initializer_list<std::string_view> extra_keys = {});

/// Parses and validates a bare fault-plan file (strict keys). Throws
/// util::json::ParseError / SchemaError on malformed documents and
/// std::invalid_argument (field-named) on semantically bad plans.
[[nodiscard]] FaultPlan load_fault_plan(const std::filesystem::path& path);

/// Writes `to_json(plan)` via util::atomic_write.
void save_fault_plan(const std::filesystem::path& path, const FaultPlan& plan);

}  // namespace dsa::fault

#include "explore/counterexample.hpp"

#include <sstream>
#include <stdexcept>

#include "fault/fault_json.hpp"
#include "util/fingerprint.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace dsa::explore {

swarm::ClientVariant client_from_name(const std::string& name) {
  using swarm::ClientVariant;
  if (name == "bt") return ClientVariant::kBitTorrent;
  if (name == "birds") return ClientVariant::kBirds;
  if (name == "loyal") return ClientVariant::kLoyalWhenNeeded;
  if (name == "sorts") return ClientVariant::kSortSlowest;
  if (name == "random") return ClientVariant::kRandomRank;
  throw std::invalid_argument("unknown client '" + name +
                              "' (expected bt|birds|loyal|sorts|random)");
}

std::string to_json(const Counterexample& ce) {
  std::ostringstream out;
  out << "{\"type\":\"fault_plan\",\"schema\":2,"
      << fault::fault_plan_json_fields(ce.plan) << ",\"swarm\":{\"a\":\""
      << util::json::escape(ce.a) << "\",\"b\":\"" << util::json::escape(ce.b)
      << "\",\"count_a\":" << ce.count_a << ",\"total\":" << ce.total
      << ",\"seed\":" << ce.seed << ",\"piece_count\":" << ce.piece_count
      << ",\"piece_size_kb\":" << util::exact_number(ce.piece_size_kb)
      << ",\"seeder_capacity_kbps\":"
      << util::exact_number(ce.seeder_capacity_kbps)
      << ",\"max_ticks\":" << ce.max_ticks << "},\"search\":{\"objective\":\""
      << util::json::escape(ce.objective)
      << "\",\"value\":" << util::exact_number(ce.value)
      << ",\"baseline\":" << util::exact_number(ce.baseline)
      << ",\"schedule\":\"" << util::json::escape(ce.schedule) << "\"}}\n";
  return std::move(out).str();
}

Counterexample load_counterexample(const std::filesystem::path& path) {
  const util::json::Value document = util::json::parse_file(path);
  const util::json::Cursor root(document, path.string());
  using fault::as_size;

  Counterexample ce;
  ce.plan = fault::read_fault_plan_document(root, {"swarm", "search"});
  if (const auto swarm_block = root.try_key("swarm")) {
    swarm_block->allow_only({"a", "b", "count_a", "total", "seed",
                             "piece_count", "piece_size_kb",
                             "seeder_capacity_kbps", "max_ticks"});
    if (const auto a = swarm_block->try_key("a")) ce.a = a->as_string();
    if (const auto b = swarm_block->try_key("b")) ce.b = b->as_string();
    if (const auto v = swarm_block->try_key("count_a")) ce.count_a = as_size(*v);
    if (const auto v = swarm_block->try_key("total")) ce.total = as_size(*v);
    if (const auto v = swarm_block->try_key("seed")) {
      ce.seed = static_cast<std::uint64_t>(as_size(*v));
    }
    if (const auto v = swarm_block->try_key("piece_count")) {
      ce.piece_count = as_size(*v);
    }
    if (const auto v = swarm_block->try_key("piece_size_kb")) {
      ce.piece_size_kb = v->as_double();
    }
    if (const auto v = swarm_block->try_key("seeder_capacity_kbps")) {
      ce.seeder_capacity_kbps = v->as_double();
    }
    if (const auto v = swarm_block->try_key("max_ticks")) {
      ce.max_ticks = as_size(*v);
    }
  }
  if (const auto search = root.try_key("search")) {
    search->allow_only({"objective", "value", "baseline", "schedule"});
    if (const auto v = search->try_key("objective")) {
      ce.objective = v->as_string();
    }
    if (const auto v = search->try_key("value")) ce.value = v->as_double();
    if (const auto v = search->try_key("baseline")) {
      ce.baseline = v->as_double();
    }
    if (const auto v = search->try_key("schedule")) {
      ce.schedule = v->as_string();
    }
  }

  // Resolve names and cross-field constraints now, so a bad committed file
  // fails at load with a message naming the field, not deep in the engine.
  (void)client_from_name(ce.a);
  if (ce.b != "same") (void)client_from_name(ce.b);
  if (ce.total == 0) {
    throw std::invalid_argument("Counterexample.swarm.total: must be > 0");
  }
  if (ce.count_a > ce.total) {
    throw std::invalid_argument(
        "Counterexample.swarm.count_a: exceeds total");
  }
  swarm_config(ce).validate(ce.total);
  return ce;
}

void save_counterexample(const std::filesystem::path& path,
                         const Counterexample& ce) {
  util::atomic_write(path, to_json(ce));
}

swarm::SwarmConfig swarm_config(const Counterexample& ce) {
  swarm::SwarmConfig config;
  config.piece_count = ce.piece_count;
  config.piece_size_kb = ce.piece_size_kb;
  config.seeder_capacity_kbps = ce.seeder_capacity_kbps;
  config.max_ticks = ce.max_ticks;
  config.seed = ce.seed;
  config.faults = ce.plan;
  return config;
}

swarm::SwarmResult run_counterexample(const Counterexample& ce) {
  const swarm::ClientVariant a = client_from_name(ce.a);
  const swarm::ClientVariant b =
      ce.b == "same" ? a : client_from_name(ce.b);
  return swarm::run_mixed_swarm(a, b, ce.count_a, ce.total, swarm_config(ce));
}

}  // namespace dsa::explore

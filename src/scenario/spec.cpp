#include "scenario/spec.hpp"

#include <sstream>
#include <stdexcept>

#include "explore/explore.hpp"
#include "swarming/protocol.hpp"
#include "util/fingerprint.hpp"
#include "util/json.hpp"

namespace dsa::scenario {

namespace json = util::json;

std::string to_string(Kind kind) {
  switch (kind) {
    case Kind::kSweep: return "sweep";
    case Kind::kSwarm: return "swarm";
    case Kind::kEvolution: return "evolution";
    case Kind::kEss: return "ess";
    case Kind::kSearch: return "search";
    case Kind::kExplore: return "explore";
  }
  return "unknown";
}

void ParamSet::set(std::string name, ParamValue value) {
  entries_.emplace_back(std::move(name), std::move(value));
}

const ParamValue& ParamSet::find(const std::string& name) const {
  for (const auto& [key, value] : entries_) {
    if (key == name) return value;
  }
  throw std::logic_error("scenario parameter not set: " + name);
}

std::int64_t ParamSet::get_int(const std::string& name) const {
  const ParamValue& v = find(name);
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  throw std::logic_error("scenario parameter is not an int: " + name);
}

double ParamSet::get_double(const std::string& name) const {
  const ParamValue& v = find(name);
  if (const auto* d = std::get_if<double>(&v)) return *d;
  // An int where a double is expected never happens for validated params
  // (the parser stores doubles for double-typed defs), so no coercion.
  throw std::logic_error("scenario parameter is not a double: " + name);
}

const std::string& ParamSet::get_string(const std::string& name) const {
  const ParamValue& v = find(name);
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  throw std::logic_error("scenario parameter is not a string: " + name);
}

std::uint32_t parse_protocol_token(const std::string& token) {
  using namespace swarming;
  if (token == "bt") return encode_protocol(bittorrent_protocol());
  if (token == "birds") return encode_protocol(birds_protocol());
  if (token == "loyal") return encode_protocol(loyal_when_needed_protocol());
  if (token == "sorts") return encode_protocol(sort_s_protocol());
  if (token == "random") return encode_protocol(random_rank_protocol());
  try {
    std::size_t pos = 0;
    const unsigned long id = std::stoul(token, &pos);
    if (pos != token.size() || id >= kProtocolCount) {
      throw std::out_of_range("id");
    }
    return static_cast<std::uint32_t>(id);
  } catch (const std::exception&) {
    throw std::invalid_argument(
        "unknown protocol '" + token +
        "' (named: bt, birds, loyal, sorts, random; or an id in [0, " +
        std::to_string(swarming::kProtocolCount) + "))");
  }
}

std::vector<std::uint32_t> parse_protocol_selection(const std::string& text) {
  std::vector<std::uint32_t> ids;
  if (text == "all") {
    ids.reserve(swarming::kProtocolCount);
    for (std::uint32_t id = 0; id < swarming::kProtocolCount; ++id) {
      ids.push_back(id);
    }
    return ids;
  }
  if (text.rfind("stride:", 0) == 0) {
    const std::string arg = text.substr(7);
    unsigned long stride = 0;
    try {
      std::size_t pos = 0;
      stride = std::stoul(arg, &pos);
      if (pos != arg.size() || stride == 0) throw std::invalid_argument(arg);
    } catch (const std::exception&) {
      throw std::invalid_argument("bad protocol stride '" + text +
                                  "' (want stride:N with N >= 1)");
    }
    for (std::uint32_t id = 0; id < swarming::kProtocolCount;
         id += static_cast<std::uint32_t>(stride)) {
      ids.push_back(id);
    }
    return ids;
  }
  std::stringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) ids.push_back(parse_protocol_token(token));
  }
  if (ids.empty()) {
    throw std::invalid_argument("empty protocol selection '" + text + "'");
  }
  return ids;
}

std::vector<std::uint32_t> parse_protocol_menu(const std::string& text) {
  std::vector<std::uint32_t> menu;
  std::stringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) menu.push_back(parse_protocol_token(token));
  }
  if (menu.size() < 2) {
    throw std::invalid_argument("menu '" + text +
                                "' needs at least two protocols");
  }
  return menu;
}

namespace {

enum class ParamType : std::uint8_t { kInt, kDouble, kString };

/// Extra validation applied to each value of an axis beyond its type.
enum class ParamCheck : std::uint8_t {
  kNone,
  kProtocol,           // parse_protocol_token must accept it
  kProtocolSelection,  // parse_protocol_selection must accept it
  kProtocolMenu,       // parse_protocol_menu must accept it
  kClient,             // one of the five swarm client names
  kClientOrSame,       // a client name or "same" (mirror param a)
  kOpenUnitInterval,   // double in (0, 1)
  kUnitInterval,       // double in [0, 1]
  kNonNegative,        // number >= 0
  kPositive,           // number >= 1 (ints) / > 0 (doubles)
  kWeight,             // double in [0, 1]
  kObjective,          // explore::parse_objective must accept it
};

struct ParamDef {
  const char* name;
  ParamType type;
  ParamValue fallback;
  ParamCheck check = ParamCheck::kNone;
};

bool is_client_name(const std::string& name) {
  return name == "bt" || name == "birds" || name == "loyal" ||
         name == "sorts" || name == "random";
}

const std::vector<ParamDef>& params_for(Kind kind) {
  using PT = ParamType;
  using PC = ParamCheck;
  static const std::vector<ParamDef> sweep = {
      {"protocols", PT::kString, std::string("all"), PC::kProtocolSelection},
      {"rounds", PT::kInt, std::int64_t{120}, PC::kPositive},
      {"population", PT::kInt, std::int64_t{50}, PC::kPositive},
      {"performance_runs", PT::kInt, std::int64_t{3}, PC::kPositive},
      {"encounter_runs", PT::kInt, std::int64_t{1}, PC::kPositive},
      {"opponent_sample", PT::kInt, std::int64_t{24}, PC::kNonNegative},
      {"minority_fraction", PT::kDouble, 0.1, PC::kOpenUnitInterval},
      {"seed", PT::kInt, std::int64_t{2011}, PC::kNonNegative},
      {"churn", PT::kDouble, 0.0, PC::kUnitInterval},
  };
  static const std::vector<ParamDef> swarm = {
      {"a", PT::kString, std::string("bt"), PC::kClient},
      {"b", PT::kString, std::string("bt"), PC::kClientOrSame},
      {"fraction", PT::kDouble, 0.5, PC::kOpenUnitInterval},
      {"total", PT::kInt, std::int64_t{50}, PC::kPositive},
      {"runs", PT::kInt, std::int64_t{10}, PC::kPositive},
      {"seed", PT::kInt, std::int64_t{500}, PC::kNonNegative},
      {"intensity", PT::kDouble, 0.0, PC::kUnitInterval},
      {"loss", PT::kDouble, -1.0},   // < 0 = no override
      {"crash_fraction", PT::kDouble, 0.5, PC::kUnitInterval},
      {"outage_fraction", PT::kDouble, 0.25, PC::kUnitInterval},
      {"horizon", PT::kInt, std::int64_t{600}, PC::kPositive},
      {"piece_count", PT::kInt, std::int64_t{80}, PC::kPositive},
      {"piece_size_kb", PT::kDouble, 64.0, PC::kPositive},
      {"seeder_capacity", PT::kDouble, 128.0, PC::kPositive},
      {"arrival_interval", PT::kInt, std::int64_t{0}, PC::kNonNegative},
  };
  static const std::vector<ParamDef> evolution = {
      {"menu", PT::kString, std::string("bt,birds,loyal"), PC::kProtocolMenu},
      {"rounds", PT::kInt, std::int64_t{200}, PC::kPositive},
      {"population", PT::kInt, std::int64_t{50}, PC::kPositive},
      {"generations", PT::kInt, std::int64_t{40}, PC::kPositive},
      {"runs_per_generation", PT::kInt, std::int64_t{2}, PC::kPositive},
      {"mutation", PT::kDouble, 0.0, PC::kUnitInterval},
      {"seed", PT::kInt, std::int64_t{2011}, PC::kNonNegative},
  };
  static const std::vector<ParamDef> ess = {
      {"protocol", PT::kString, std::string("bt"), PC::kProtocol},
      {"rounds", PT::kInt, std::int64_t{200}, PC::kPositive},
      {"population", PT::kInt, std::int64_t{50}, PC::kPositive},
      {"mutant_fraction", PT::kDouble, 0.1, PC::kOpenUnitInterval},
      {"runs", PT::kInt, std::int64_t{1}, PC::kPositive},
      {"mutant_sample", PT::kInt, std::int64_t{24}, PC::kNonNegative},
      {"seed", PT::kInt, std::int64_t{2011}, PC::kNonNegative},
  };
  static const std::vector<ParamDef> search = {
      {"rounds", PT::kInt, std::int64_t{120}, PC::kPositive},
      {"population", PT::kInt, std::int64_t{50}, PC::kPositive},
      {"restarts", PT::kInt, std::int64_t{4}, PC::kPositive},
      {"steps_per_restart", PT::kInt, std::int64_t{40}, PC::kPositive},
      {"eval_runs", PT::kInt, std::int64_t{3}, PC::kPositive},
      {"opponent_probes", PT::kInt, std::int64_t{8}, PC::kPositive},
      {"performance_weight", PT::kDouble, 0.5, PC::kWeight},
      {"reference", PT::kString, std::string("bt"), PC::kProtocol},
      {"seed", PT::kInt, std::int64_t{7}, PC::kNonNegative},
  };
  static const std::vector<ParamDef> explore = {
      {"a", PT::kString, std::string("bt"), PC::kClient},
      {"b", PT::kString, std::string("same"), PC::kClientOrSame},
      {"fraction", PT::kDouble, 0.5, PC::kOpenUnitInterval},
      {"total", PT::kInt, std::int64_t{20}, PC::kPositive},
      {"seed", PT::kInt, std::int64_t{500}, PC::kNonNegative},
      {"piece_count", PT::kInt, std::int64_t{40}, PC::kPositive},
      {"piece_size_kb", PT::kDouble, 64.0, PC::kPositive},
      {"seeder_capacity", PT::kDouble, 128.0, PC::kPositive},
      {"max_ticks", PT::kInt, std::int64_t{20000}, PC::kPositive},
      // Ambient fault knobs applied to every schedule of the exploration.
      {"loss", PT::kDouble, 0.0, PC::kUnitInterval},
      // Template vocabulary: crash templates for the first `crash_leechers`
      // leechers, `outage_count` seeder-outage templates.
      {"crash_leechers", PT::kInt, std::int64_t{2}, PC::kNonNegative},
      {"crash_downtime", PT::kInt, std::int64_t{60}, PC::kPositive},
      {"outage_count", PT::kInt, std::int64_t{1}, PC::kNonNegative},
      {"outage_length", PT::kInt, std::int64_t{80}, PC::kPositive},
      // Start-tick grid: tick_start, tick_start + tick_step, ...
      {"tick_start", PT::kInt, std::int64_t{1}, PC::kNonNegative},
      {"tick_step", PT::kInt, std::int64_t{40}, PC::kPositive},
      {"tick_count", PT::kInt, std::int64_t{6}, PC::kPositive},
      {"max_faults", PT::kInt, std::int64_t{2}, PC::kNonNegative},
      {"objective", PT::kString, std::string("mean_time"), PC::kObjective},
  };
  switch (kind) {
    case Kind::kSweep: return sweep;
    case Kind::kSwarm: return swarm;
    case Kind::kEvolution: return evolution;
    case Kind::kEss: return ess;
    case Kind::kSearch: return search;
    case Kind::kExplore: return explore;
  }
  return sweep;
}

void check_value(const ParamDef& def, const ParamValue& value,
                 const json::Cursor& where) {
  const auto number = [&]() -> double {
    if (const auto* i = std::get_if<std::int64_t>(&value)) {
      return static_cast<double>(*i);
    }
    return std::get<double>(value);
  };
  const auto text = [&]() -> const std::string& {
    return std::get<std::string>(value);
  };
  try {
    switch (def.check) {
      case ParamCheck::kNone:
        break;
      case ParamCheck::kProtocol:
        (void)parse_protocol_token(text());
        break;
      case ParamCheck::kProtocolSelection:
        (void)parse_protocol_selection(text());
        break;
      case ParamCheck::kProtocolMenu:
        (void)parse_protocol_menu(text());
        break;
      case ParamCheck::kClient:
        if (!is_client_name(text())) {
          throw std::invalid_argument(
              "unknown client '" + text() +
              "' (want bt, birds, loyal, sorts, or random)");
        }
        break;
      case ParamCheck::kClientOrSame:
        if (text() != "same" && !is_client_name(text())) {
          throw std::invalid_argument(
              "unknown client '" + text() +
              "' (want bt, birds, loyal, sorts, random, or same)");
        }
        break;
      case ParamCheck::kOpenUnitInterval:
        if (!(number() > 0.0 && number() < 1.0)) {
          throw std::invalid_argument("value must be inside (0, 1)");
        }
        break;
      case ParamCheck::kUnitInterval:
      case ParamCheck::kWeight:
        if (!(number() >= 0.0 && number() <= 1.0)) {
          throw std::invalid_argument("value must be inside [0, 1]");
        }
        break;
      case ParamCheck::kNonNegative:
        if (number() < 0.0) {
          throw std::invalid_argument("value must be >= 0");
        }
        break;
      case ParamCheck::kPositive:
        if (!(number() > 0.0)) {
          throw std::invalid_argument("value must be > 0");
        }
        break;
      case ParamCheck::kObjective:
        (void)explore::parse_objective(text());
        break;
    }
  } catch (const std::invalid_argument& error) {
    where.fail(error.what());
  }
}

ParamValue read_value(const ParamDef& def, const json::Cursor& where) {
  ParamValue value;
  switch (def.type) {
    case ParamType::kInt: value = where.as_int(); break;
    case ParamType::kDouble: value = where.as_double(); break;
    case ParamType::kString: value = where.as_string(); break;
  }
  check_value(def, value, where);
  return value;
}

Kind parse_kind(const json::Cursor& where) {
  const std::string text = where.as_string();
  if (text == "sweep") return Kind::kSweep;
  if (text == "swarm") return Kind::kSwarm;
  if (text == "evolution") return Kind::kEvolution;
  if (text == "ess") return Kind::kEss;
  if (text == "search") return Kind::kSearch;
  if (text == "explore") return Kind::kExplore;
  where.fail("unknown kind '" + text +
             "' (want sweep, swarm, evolution, ess, search, or explore)");
}

ScenarioSpec build_spec(const json::Value& root, std::string origin) {
  const json::Cursor top(root, std::move(origin));
  top.allow_only(
      {"scenario", "kind", "output", "threads", "retries", "chunk", "params"});

  ScenarioSpec spec;
  spec.name = top.key("scenario").as_string();
  if (spec.name.empty()) top.key("scenario").fail("scenario name is empty");
  spec.kind = parse_kind(top.key("kind"));
  spec.output = top.key("output").as_string();
  if (spec.output.empty()) top.key("output").fail("output path is empty");

  if (const auto threads = top.try_key("threads")) {
    const std::int64_t n = threads->as_int();
    if (n < 0) threads->fail("threads must be >= 0 (0 = hardware)");
    spec.threads = static_cast<std::size_t>(n);
  }
  if (const auto retries = top.try_key("retries")) {
    const std::int64_t n = retries->as_int();
    if (n < 0) retries->fail("retries must be >= 0");
    spec.retries = static_cast<std::size_t>(n);
  }
  if (const auto chunk = top.try_key("chunk")) {
    if (spec.kind != Kind::kSweep && spec.kind != Kind::kExplore) {
      chunk->fail("chunk is only valid for kinds \"sweep\" and \"explore\"");
    }
    const std::int64_t n = chunk->as_int();
    if (n < 1) chunk->fail("chunk must be >= 1");
    spec.chunk = static_cast<std::size_t>(n);
  }

  const std::vector<ParamDef>& defs = params_for(spec.kind);
  std::optional<json::Cursor> params = top.try_key("params");
  if (params) {
    // The kind's table is the single source of truth for allowed keys.
    for (const auto& [name, value] : params->value().members) {
      (void)value;
      bool known = false;
      for (const ParamDef& def : defs) {
        if (name == def.name) {
          known = true;
          break;
        }
      }
      if (!known) {
        std::string choices;
        for (const ParamDef& def : defs) {
          if (!choices.empty()) choices += ", ";
          choices += def.name;
        }
        params->fail("unknown parameter \"" + name + "\" for kind \"" +
                     to_string(spec.kind) + "\" (allowed: " + choices + ")");
      }
    }
  }

  // Every parameter of the kind becomes an axis, defaults included, in
  // table order — so the fingerprint and expansion order never depend on
  // the spec author's key order.
  for (const ParamDef& def : defs) {
    Axis axis;
    axis.name = def.name;
    std::optional<json::Cursor> given =
        params ? params->try_key(def.name) : std::nullopt;
    if (!given) {
      axis.values.push_back(def.fallback);
    } else if (given->is_array()) {
      if (spec.kind == Kind::kSweep) {
        given->fail("kind \"sweep\" takes scalar parameters only (it shards "
                    "over protocol chunks, not parameter grids)");
      }
      if (spec.kind == Kind::kExplore) {
        given->fail("kind \"explore\" takes scalar parameters only (it "
                    "shards over schedule chunks, not parameter grids)");
      }
      if (given->size() == 0) given->fail("grid must not be empty");
      for (std::size_t i = 0; i < given->size(); ++i) {
        axis.values.push_back(read_value(def, given->at(i)));
      }
    } else {
      axis.values.push_back(read_value(def, *given));
    }
    spec.axes.push_back(std::move(axis));
  }
  return spec;
}

}  // namespace

std::uint64_t ScenarioSpec::fingerprint() const {
  util::Fingerprint fp(0x5c3a9e1db4f07268ULL);
  fp.mix(static_cast<std::uint64_t>(kind));
  fp.mix(static_cast<std::uint64_t>(chunk));
  fp.mix(static_cast<std::uint64_t>(axes.size()));
  for (const Axis& axis : axes) {
    fp.mix(axis.name);
    fp.mix(static_cast<std::uint64_t>(axis.values.size()));
    for (const ParamValue& value : axis.values) {
      fp.mix(static_cast<std::uint64_t>(value.index()));
      if (const auto* i = std::get_if<std::int64_t>(&value)) {
        fp.mix(static_cast<std::uint64_t>(*i));
      } else if (const auto* d = std::get_if<double>(&value)) {
        fp.mix_double(*d);
      } else {
        fp.mix(std::get<std::string>(value));
      }
    }
  }
  return fp.value();
}

ScenarioSpec parse_scenario_text(std::string_view text,
                                 std::string_view origin) {
  const json::Value root = json::parse(text, origin);
  return build_spec(root, std::string(origin));
}

ScenarioSpec parse_scenario_file(const std::filesystem::path& path) {
  const json::Value root = json::parse_file(path);
  return build_spec(root, path.string());
}

}  // namespace dsa::scenario

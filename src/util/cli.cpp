#include "util/cli.hpp"

#include <algorithm>
#include <stdexcept>

namespace dsa::util {

CliArgs CliArgs::parse(int argc, const char* const* argv) {
  CliArgs args;
  int i = 0;
  // Optional leading subcommand.
  if (i < argc && argv[i][0] != '-') {
    args.subcommand_ = argv[i];
    ++i;
  }
  while (i < argc) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      // Bare token in flag position: a positional operand (e.g. the spec
      // path of `run spec.json`). Commands that take none reject it later
      // via unconsumed_positionals().
      args.positionals_.push_back(token);
      args.positional_at_.push_back(i);
      ++i;
      continue;
    }
    const std::string name = token.substr(2);
    if (args.flags_.count(name)) {
      throw std::invalid_argument("duplicate flag --" + name);
    }
    std::string value;
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[i + 1];
      ++i;
      args.bound_at_[name] = i;
    }
    args.flags_[name] = value;
    ++i;
  }
  args.positional_consumed_.assign(args.positionals_.size(), false);
  return args;
}

bool CliArgs::has(const std::string& flag) const {
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return false;
  consumed_[flag] = true;
  const auto bound = bound_at_.find(flag);
  if (bound != bound_at_.end()) {
    const auto place = static_cast<std::size_t>(
        std::upper_bound(positional_at_.begin(), positional_at_.end(),
                         bound->second) -
        positional_at_.begin());
    if (place < positionals_asked_) {
      throw std::logic_error("switch --" + flag +
                             " read after the positional it shifts");
    }
    positionals_.insert(positionals_.begin() + place, it->second);
    positional_at_.insert(positional_at_.begin() + place, bound->second);
    positional_consumed_.insert(positional_consumed_.begin() + place, false);
    it->second.clear();
    bound_at_.erase(bound);
  }
  return true;
}

std::optional<std::string> CliArgs::value(const std::string& flag) const {
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return std::nullopt;
  consumed_[flag] = true;
  if (it->second.empty()) {
    throw std::invalid_argument("flag --" + flag + " needs a value");
  }
  return it->second;
}

std::string CliArgs::get(const std::string& flag,
                         const std::string& fallback) const {
  const auto v = value(flag);
  return v ? *v : fallback;
}

std::int64_t CliArgs::get_int(const std::string& flag,
                              std::int64_t fallback) const {
  const auto v = value(flag);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const long long parsed = std::stoll(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return static_cast<std::int64_t>(parsed);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + flag + " expects an integer, got '" +
                                *v + "'");
  }
}

double CliArgs::get_double(const std::string& flag, double fallback) const {
  const auto v = value(flag);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + flag + " expects a number, got '" +
                                *v + "'");
  }
}

std::string CliArgs::positional(std::size_t i,
                                const std::string& fallback) const {
  positionals_asked_ = std::max(positionals_asked_, i + 1);
  if (i >= positionals_.size()) return fallback;
  positional_consumed_[i] = true;
  return positionals_[i];
}

std::vector<std::string> CliArgs::unconsumed() const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (!consumed_.count(name)) unknown.push_back(name);
  }
  return unknown;
}

std::vector<std::string> CliArgs::unconsumed_positionals() const {
  std::vector<std::string> stray;
  for (std::size_t i = 0; i < positionals_.size(); ++i) {
    if (!positional_consumed_[i]) stray.push_back(positionals_[i]);
  }
  return stray;
}

HelpIndex::HelpIndex(std::vector<CommandHelp> commands)
    : commands_(std::move(commands)) {}

const CommandHelp* HelpIndex::find(const std::string& name) const {
  for (const CommandHelp& cmd : commands_) {
    if (cmd.name == name) return &cmd;
  }
  return nullptr;
}

std::string HelpIndex::command_list() const {
  std::size_t width = 0;
  for (const CommandHelp& cmd : commands_) {
    width = std::max(width, cmd.name.size());
  }
  std::string out;
  for (const CommandHelp& cmd : commands_) {
    out += "  " + cmd.name;
    out.append(width - cmd.name.size() + 2, ' ');
    out += cmd.summary + "\n";
  }
  return out;
}

}  // namespace dsa::util

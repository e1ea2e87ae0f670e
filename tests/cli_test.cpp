// Tests for the CLI argument parser (util/cli.hpp).
#include <gtest/gtest.h>

#include "util/cli.hpp"

namespace {

using dsa::util::CliArgs;

CliArgs parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv(tokens);
  return CliArgs::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, ParsesSubcommandAndFlags) {
  const CliArgs args = parse({"pra", "--runs", "5", "--verbose"});
  EXPECT_EQ(args.subcommand(), "pra");
  EXPECT_EQ(args.get_int("runs", 1), 5);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("missing"));
}

TEST(CliArgs, EmptyCommandLine) {
  const CliArgs args = parse({});
  EXPECT_TRUE(args.subcommand().empty());
  EXPECT_EQ(args.get("x", "fallback"), "fallback");
}

TEST(CliArgs, TypedAccessors) {
  const CliArgs args = parse({"cmd", "--f", "2.5", "--s", "text", "--n", "7"});
  EXPECT_DOUBLE_EQ(args.get_double("f", 0.0), 2.5);
  EXPECT_EQ(args.get("s", ""), "text");
  EXPECT_EQ(args.get_int("n", 0), 7);
  EXPECT_DOUBLE_EQ(args.get_double("absent", 1.5), 1.5);
}

TEST(CliArgs, BadNumbersThrow) {
  const CliArgs args = parse({"cmd", "--n", "7x", "--f", "abc"});
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("f", 0.0), std::invalid_argument);
}

TEST(CliArgs, BooleanFlagHasNoValue) {
  const CliArgs args = parse({"cmd", "--flag"});
  EXPECT_TRUE(args.has("flag"));
  EXPECT_THROW(args.value("flag"), std::invalid_argument);
}

TEST(CliArgs, RejectsDuplicateFlags) {
  EXPECT_THROW(parse({"cmd", "--dup", "1", "--dup", "2"}),
               std::invalid_argument);
}

TEST(CliArgs, CollectsPositionals) {
  const CliArgs args = parse({"run", "spec.json", "--threads", "2", "extra"});
  EXPECT_EQ(args.subcommand(), "run");
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positional(0), "spec.json");
  EXPECT_EQ(args.get_int("threads", 0), 2);
  // Only positional 0 was read; "extra" is a stray argument.
  const auto stray = args.unconsumed_positionals();
  ASSERT_EQ(stray.size(), 1u);
  EXPECT_EQ(stray.front(), "extra");
}

TEST(CliArgs, PositionalFallback) {
  const CliArgs args = parse({"cmd"});
  EXPECT_TRUE(args.positionals().empty());
  EXPECT_EQ(args.positional(0, "default"), "default");
  EXPECT_TRUE(args.unconsumed_positionals().empty());
}

TEST(CliArgs, TokenAfterValuedFlagIsItsValueNotPositional) {
  const CliArgs args = parse({"cmd", "--name", "value", "operand"});
  EXPECT_EQ(args.get("name", ""), "value");
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positional(0), "operand");
}

TEST(CliArgs, TracksUnconsumedFlags) {
  const CliArgs args = parse({"cmd", "--used", "1", "--typo", "2"});
  (void)args.get_int("used", 0);
  const auto unknown = args.unconsumed();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown.front(), "typo");
}

TEST(CliArgs, ValueAfterBooleanFlagBindsToNextFlag) {
  const CliArgs args = parse({"cmd", "--a", "--b", "value"});
  EXPECT_TRUE(args.has("a"));
  EXPECT_EQ(args.get("b", ""), "value");
}

// `dsa_cli plan --jobs <spec>`: the spec bound after the switch returns to
// the positionals once `plan` reads --jobs as a switch.
TEST(CliArgs, PlanJobsSwitchBeforeSpecKeepsTheSpec) {
  const CliArgs args = parse({"plan", "--jobs", "spec.json"});
  EXPECT_TRUE(args.has("jobs"));
  EXPECT_EQ(args.positional(0), "spec.json");
  EXPECT_TRUE(args.unconsumed().empty());
  EXPECT_TRUE(args.unconsumed_positionals().empty());
}

// `dsa_cli status --json DIR` reads DIR, not the default results/.
TEST(CliArgs, StatusJsonSwitchBeforeDirKeepsTheDir) {
  const CliArgs args = parse({"status", "--json", "runs/dir"});
  EXPECT_TRUE(args.has("json"));
  EXPECT_FALSE(args.has("watch"));
  EXPECT_EQ(args.positional(0, "results"), "runs/dir");
}

TEST(CliArgs, ReleasedTokenTakesItsOriginalPlace) {
  const CliArgs args =
      parse({"cmd", "first", "--quiet", "second", "--out", "o", "third"});
  EXPECT_TRUE(args.has("quiet"));
  EXPECT_EQ(args.get("out", ""), "o");
  ASSERT_EQ(args.positionals().size(), 3u);
  EXPECT_EQ(args.positional(0), "first");
  EXPECT_EQ(args.positional(1), "second");
  EXPECT_EQ(args.positional(2), "third");
}

TEST(CliArgs, SwitchReadAfterThePositionalItShiftsThrows) {
  const CliArgs args = parse({"plan", "--jobs", "spec.json"});
  EXPECT_EQ(args.positional(0), "");
  EXPECT_THROW((void)args.has("jobs"), std::logic_error);
}

TEST(HelpIndex, FindsCommandsAndAlignsList) {
  const dsa::util::HelpIndex index({
      {"run", "execute a scenario", "usage: run <spec.json>"},
      {"pl", "short name", "usage: pl"},
  });
  ASSERT_NE(index.find("run"), nullptr);
  EXPECT_EQ(index.find("run")->usage, "usage: run <spec.json>");
  EXPECT_EQ(index.find("nope"), nullptr);
  const std::string list = index.command_list();
  // Registration order preserved, names padded to a common column.
  EXPECT_EQ(list,
            "  run  execute a scenario\n"
            "  pl   short name\n");
}

}  // namespace

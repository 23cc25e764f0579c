// CLI argument parser tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/cli.hpp"

namespace gcube {
namespace {

CliArgs parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsForm) {
  const auto args = parse({"--n=10", "--rate=0.5"});
  EXPECT_EQ(args.get_int("n", 0), 10);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.5);
}

TEST(Cli, SpaceForm) {
  const auto args = parse({"--n", "12", "--name", "hello"});
  EXPECT_EQ(args.get_int("n", 0), 12);
  EXPECT_EQ(args.get_string("name", ""), "hello");
}

TEST(Cli, BooleanFlags) {
  const auto args = parse({"--verbose", "--n", "3"});
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_FALSE(args.get_bool("quiet"));
  EXPECT_EQ(args.get_int("n", 0), 3);
}

TEST(Cli, Defaults) {
  const auto args = parse({});
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_EQ(args.get_string("s", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(args.get_double("d", 1.5), 1.5);
}

TEST(Cli, Positional) {
  const auto args = parse({"alpha", "--n", "1", "beta"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "alpha");
  EXPECT_EQ(args.positional()[1], "beta");
}

TEST(Cli, AllowRejectsUnknownFlags) {
  auto args = parse({"--speling-mistake", "1"});
  EXPECT_THROW(args.allow({"n", "rate"}), std::invalid_argument);
  auto ok = parse({"--n", "1"});
  ok.allow({"n", "rate"});  // must not throw
}

TEST(Cli, TypeErrorsAreLoud) {
  const auto args = parse({"--n", "abc"});
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("n", 0.0), std::invalid_argument);
}

TEST(Cli, NumbersMustUseTheWholeToken) {
  // A parse that stopped early would run --cycles 2e3 as 2 cycles and
  // --rate 0.05abc at 0.05.
  const auto bad = parse({"--cycles", "2e3", "--rate", "0.05abc", "--n",
                          "12x", "--blank="});
  EXPECT_THROW((void)bad.get_int("cycles", 0), std::invalid_argument);
  EXPECT_THROW((void)bad.get_uint("cycles", 0), std::invalid_argument);
  EXPECT_THROW((void)bad.get_double("rate", 0.0), std::invalid_argument);
  EXPECT_THROW((void)bad.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)bad.get_uint("blank", 0), std::invalid_argument);
  const auto good = parse({"--cycles", "2000", "--rate", "0.05", "--x",
                           "2e3"});
  EXPECT_EQ(good.get_uint("cycles", 0), 2000u);
  EXPECT_DOUBLE_EQ(good.get_double("rate", 0.0), 0.05);
  EXPECT_DOUBLE_EQ(good.get_double("x", 0.0), 2000.0);
}

TEST(Cli, UnsignedFlagsRejectNegativeAndOversizedValues) {
  // Stored in unsigned fields, --cycles -1 or --service -1 would wrap.
  const auto args = parse({"--cycles", "-1", "--service", "-1", "--threads",
                           "4294967296", "--seed", "18446744073709551615"});
  EXPECT_EQ(args.get_int("cycles", 0), -1);  // signed flags still may be
  EXPECT_THROW((void)args.get_uint("cycles", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_uint("service", 4, 0xFFFFFFFFu),
               std::invalid_argument);
  EXPECT_THROW((void)args.get_uint("threads", 0, 0xFFFFFFFFu),
               std::invalid_argument);
  EXPECT_EQ(args.get_uint("seed", 0), ~std::uint64_t{0});
  EXPECT_EQ(args.get_uint("missing", 7), 7u);
}

TEST(Cli, BareDashesRejected) {
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(Cli, LastValueWins) {
  const auto args = parse({"--n", "1", "--n", "2"});
  EXPECT_EQ(args.get_int("n", 0), 2);
}

}  // namespace
}  // namespace gcube

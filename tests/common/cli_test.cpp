#include "common/cli.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"

namespace tsajs {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return {args.begin(), args.end()};
}

TEST(CliTest, DefaultsApplyWhenUnset) {
  CliParser cli("test");
  cli.add_flag("users", "number of users", "30");
  const auto argv = argv_of({"prog"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_int("users"), 30);
}

TEST(CliTest, SpaceSeparatedValue) {
  CliParser cli("test");
  cli.add_flag("users", "number of users", "30");
  const auto argv = argv_of({"prog", "--users", "50"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_int("users"), 50);
}

TEST(CliTest, EqualsSeparatedValue) {
  CliParser cli("test");
  cli.add_flag("seed", "rng seed", "1");
  const auto argv = argv_of({"prog", "--seed=99"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_int("seed"), 99);
}

TEST(CliTest, SwitchPresence) {
  CliParser cli("test");
  cli.add_switch("verbose", "log more");
  const auto argv = argv_of({"prog", "--verbose"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(CliTest, SwitchDefaultFalse) {
  CliParser cli("test");
  cli.add_switch("verbose", "log more");
  const auto argv = argv_of({"prog"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_FALSE(cli.get_bool("verbose"));
}

TEST(CliTest, UnknownFlagThrows) {
  CliParser cli("test");
  const auto argv = argv_of({"prog", "--bogus", "1"});
  EXPECT_THROW((void)cli.parse(static_cast<int>(argv.size()), argv.data()),
               InvalidArgumentError);
}

TEST(CliTest, MissingValueThrows) {
  CliParser cli("test");
  cli.add_flag("users", "number of users", "30");
  const auto argv = argv_of({"prog", "--users"});
  EXPECT_THROW((void)cli.parse(static_cast<int>(argv.size()), argv.data()),
               InvalidArgumentError);
}

TEST(CliTest, NonNumericIntThrows) {
  CliParser cli("test");
  cli.add_flag("users", "number of users", "30");
  const auto argv = argv_of({"prog", "--users", "abc"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW((void)cli.get_int("users"), InvalidArgumentError);
}

TEST(CliTest, UintParsing) {
  CliParser cli("test");
  cli.add_flag("trials", "Monte-Carlo drops", "10");
  const auto argv = argv_of({"prog", "--trials", "250"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_uint("trials"), 250u);
}

TEST(CliTest, NegativeUintThrows) {
  CliParser cli("test");
  cli.add_flag("trials", "Monte-Carlo drops", "10");
  const auto argv = argv_of({"prog", "--trials", "-3"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW((void)cli.get_uint("trials"), InvalidArgumentError);
}

TEST(CliTest, DoubleParsing) {
  CliParser cli("test");
  cli.add_flag("beta", "time preference", "0.5");
  const auto argv = argv_of({"prog", "--beta", "0.75"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_DOUBLE_EQ(cli.get_double("beta"), 0.75);
}

TEST(CliTest, NonFiniteDoubleThrows) {
  // "nan"/"inf" parse as valid doubles but would poison every downstream
  // rate, budget, and accumulator — the parser rejects them outright.
  for (const char* text : {"nan", "NaN", "inf", "-inf", "infinity", "1e999"}) {
    CliParser cli("test");
    cli.add_flag("beta", "time preference", "0.5");
    const auto argv = argv_of({"prog", "--beta", text});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_THROW((void)cli.get_double("beta"), InvalidArgumentError)
        << "value: " << text;
  }
}

TEST(CliTest, NonFiniteDoubleListItemThrows) {
  CliParser cli("test");
  cli.add_flag("workloads", "Mcycle sweep", "1000,nan,3000");
  const auto argv = argv_of({"prog"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW((void)cli.get_double_list("workloads"), InvalidArgumentError);
}

TEST(CliTest, OutOfRangeUintThrows) {
  CliParser cli("test");
  cli.add_flag("trials", "Monte-Carlo drops", "10");
  const auto argv = argv_of({"prog", "--trials", "99999999999999999999999"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW((void)cli.get_uint("trials"), InvalidArgumentError);
}

TEST(CliTest, DoubleListParsing) {
  CliParser cli("test");
  cli.add_flag("workloads", "Mcycle sweep", "1000,2000,3000");
  const auto argv = argv_of({"prog"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_double_list("workloads"),
            (std::vector<double>{1000.0, 2000.0, 3000.0}));
}

/// what() of the InvalidArgumentError `fn` throws; fails the test when it
/// throws nothing.
template <typename Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const InvalidArgumentError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected InvalidArgumentError";
  return {};
}

TEST(CliTest, StrayPositionalArgumentThrows) {
  CliParser cli("test");
  const auto argv = argv_of({"prog", "input.csv"});
  const std::string message = invalid_argument_message(
      [&] { (void)cli.parse(static_cast<int>(argv.size()), argv.data()); });
  EXPECT_NE(message.find("'input.csv'"), std::string::npos) << message;
}

TEST(CliTest, SpaceSeparatedListValueThrows) {
  // `--data-sizes 100 200` once swept only 100 and dropped 200 unread.
  CliParser cli("test");
  cli.add_flag("data-sizes", "task input sizes [KB]", "420");
  const auto argv = argv_of({"prog", "--data-sizes", "100", "200"});
  const std::string message = invalid_argument_message(
      [&] { (void)cli.parse(static_cast<int>(argv.size()), argv.data()); });
  EXPECT_NE(message.find("'200'"), std::string::npos) << message;
}

TEST(CliTest, DoubleListTrailingCharactersThrow) {
  // `100,2x00` once parsed as {100, 2}.
  CliParser cli("test");
  cli.add_flag("data-sizes", "task input sizes [KB]", "420");
  const auto argv = argv_of({"prog", "--data-sizes", "100,2x00"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  const std::string message = invalid_argument_message(
      [&] { (void)cli.get_double_list("data-sizes"); });
  EXPECT_NE(message.find("--data-sizes"), std::string::npos) << message;
  EXPECT_NE(message.find("2x00"), std::string::npos) << message;
}

TEST(CliTest, UnregisteredAccessThrows) {
  CliParser cli("test");
  EXPECT_THROW((void)cli.get_string("nope"), NotFoundError);
}

TEST(CliTest, HelpTextListsFlags) {
  CliParser cli("my summary");
  cli.add_flag("users", "number of users", "30");
  const std::string help = cli.help_text();
  EXPECT_NE(help.find("my summary"), std::string::npos);
  EXPECT_NE(help.find("--users"), std::string::npos);
  EXPECT_NE(help.find("number of users"), std::string::npos);
}

TEST(CliTest, RunMainTurnsAnEscapingErrorIntoUsageExit) {
  char program[] = "build/bench/fig5_data_size";
  char* argv[] = {program, nullptr};
  ::testing::internal::CaptureStderr();
  const int code = run_main(1, argv, [](int, char**) -> int {
    throw InvalidArgumentError("unexpected argument '200'");
  });
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "fig5_data_size: unexpected argument '200'\n");
  EXPECT_EQ(code, 2);
  EXPECT_EQ(run_main(1, argv, [](int, char**) { return 7; }), 7);
}

}  // namespace
}  // namespace tsajs

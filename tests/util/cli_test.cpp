#include "rrsim/util/cli.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace rrsim::util {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EmptyCommandLine) {
  const Cli cli = make({});
  EXPECT_FALSE(cli.has("anything"));
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, KeyEqualsValue) {
  const Cli cli = make({"--reps=50"});
  EXPECT_TRUE(cli.has("reps"));
  EXPECT_EQ(cli.get_int("reps", 0), 50);
}

TEST(Cli, KeySpaceValue) {
  const Cli cli = make({"--scheme", "HALF"});
  EXPECT_EQ(cli.get_string("scheme", ""), "HALF");
}

TEST(Cli, BareFlagIsTrue) {
  const Cli cli = make({"--full"});
  EXPECT_TRUE(cli.get_bool("full", false));
}

TEST(Cli, AbsentFlagUsesFallback) {
  const Cli cli = make({});
  EXPECT_EQ(cli.get_int("reps", 7), 7);
  EXPECT_EQ(cli.get_double("util", 0.5), 0.5);
  EXPECT_EQ(cli.get_string("x", "d"), "d");
  EXPECT_FALSE(cli.get_bool("full", false));
}

TEST(Cli, BooleanSpellings) {
  EXPECT_TRUE(make({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(make({"--x=1"}).get_bool("x", false));
  EXPECT_TRUE(make({"--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(make({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=no"}).get_bool("x", true));
}

TEST(Cli, BadBooleanThrows) {
  const Cli cli = make({"--x=maybe"});
  EXPECT_THROW(cli.get_bool("x", false), std::invalid_argument);
}

TEST(Cli, BadIntegerThrows) {
  EXPECT_THROW(make({"--n=12x"}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(make({"--n=1.5"}).get_int("n", 0), std::invalid_argument);
}

TEST(Cli, DoubleParsing) {
  EXPECT_DOUBLE_EQ(make({"--u=0.92"}).get_double("u", 0), 0.92);
  EXPECT_THROW(make({"--u=abc"}).get_double("u", 0), std::invalid_argument);
}

TEST(Cli, DoubleRejectsNonFiniteValues) {
  // NaN passes every `x < lo` range check and an infinity sizes nothing
  // sensibly, so no flag accepts them; the error names the flag.
  for (const char* flag : {"--u=nan", "--u=NaN", "--u=-nan", "--u=inf",
                           "--u=-inf", "--u=infinity", "--u=1e999"}) {
    try {
      make({flag}).get_double("u", 0);
      ADD_FAILURE() << flag << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--u"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_DOUBLE_EQ(make({"--u=-1e300"}).get_double("u", 0), -1e300);
  EXPECT_DOUBLE_EQ(make({}).get_double("u", 2.5), 2.5);
}

TEST(Cli, NegativeNumbersAsValues) {
  // `--key=value` form supports negative numbers unambiguously.
  EXPECT_EQ(make({"--n=-3"}).get_int("n", 0), -3);
}

TEST(Cli, PositionalArgumentRejected) {
  std::vector<const char*> argv{"prog", "positional"};
  EXPECT_THROW(Cli(2, argv.data()), std::invalid_argument);
}

TEST(Cli, LaterFlagWins) {
  const Cli cli = make({"--n=1", "--n=2"});
  EXPECT_EQ(cli.get_int("n", 0), 2);
}

TEST(Cli, RangeCheckedIntegerAcceptsTheRangeAndFallsBack) {
  EXPECT_EQ(make({"--n=1"}).get_int_in("n", 0, 1, 16), 1);
  EXPECT_EQ(make({"--n=16"}).get_int_in("n", 0, 1, 16), 16);
  EXPECT_EQ(make({}).get_int_in("n", 7, 1, 16), 7);
}

TEST(Cli, RangeCheckedIntegerNamesTheFlagAndRange) {
  // Below, above, 2^32 + 16 (which an int cast would wrap to 16), past
  // int64, and not an integer at all.
  for (const char* arg : {"--nodes=0", "--nodes=-4", "--nodes=2147483648",
                          "--nodes=4294967312", "--nodes=9223372036854775808",
                          "--nodes=-99999999999999999999", "--nodes=16x"}) {
    try {
      make({arg}).get_int_in("nodes", 128, 1, 2147483647);
      ADD_FAILURE() << arg << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--nodes"), std::string::npos) << what;
      EXPECT_NE(what.find("[1, 2147483647]"), std::string::npos) << what;
    }
  }
}

TEST(Cli, RejectUnreadNamesEveryFlagNobodyRead) {
  const Cli cli = make({"--reps=4", "--bogus=1", "--help"});
  EXPECT_EQ(cli.get_int("reps", 0), 4);
  try {
    cli.reject_unread();
    ADD_FAILURE() << "unread flags accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "unknown flags --bogus, --help");
  }
  EXPECT_THROW(make({"--typo"}).reject_unread(), std::invalid_argument);
}

TEST(Cli, RejectUnreadAcceptsFlagsReadAnyWay) {
  // has() is a read, and so is a get_*() that throws on the value.
  const Cli cli = make({"--a=1", "--b", "--c=x", "--d=oops"});
  EXPECT_TRUE(cli.has("a"));
  EXPECT_TRUE(cli.get_bool("b", false));
  EXPECT_EQ(cli.get_string("c", ""), "x");
  EXPECT_THROW(cli.get_int_in("d", 0, 1, 9), std::invalid_argument);
  EXPECT_NO_THROW(cli.reject_unread());
}

TEST(Cli, RejectUnreadIgnoresFlagsAskedForButAbsent) {
  const Cli cli = make({"--n=2"});
  EXPECT_FALSE(cli.has("x"));
  EXPECT_EQ(cli.get_double("u", 0.5), 0.5);
  try {
    cli.reject_unread();
    ADD_FAILURE() << "--n accepted unread";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "unknown flag --n");
  }
}

TEST(Cli, SeenRecordsOrder) {
  const Cli cli = make({"--a=1", "--b=2", "--a=3"});
  ASSERT_EQ(cli.seen().size(), 3u);
  EXPECT_EQ(cli.seen()[0], "a");
  EXPECT_EQ(cli.seen()[1], "b");
  EXPECT_EQ(cli.seen()[2], "a");
}

}  // namespace
}  // namespace rrsim::util

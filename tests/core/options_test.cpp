#include "rrsim/core/options.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rrsim/exec/jobs.h"
#include "rrsim/util/rng.h"

namespace rrsim::core {
namespace {

ExperimentConfig parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  const util::Cli cli(static_cast<int>(argv.size()), argv.data());
  return apply_common_flags(ExperimentConfig{}, cli);
}

TEST(LoadModeParsing, RoundTrip) {
  EXPECT_EQ(parse_load_mode("shared"), LoadMode::kSharedPeak);
  EXPECT_EQ(parse_load_mode("peak"), LoadMode::kPerClusterPeak);
  EXPECT_EQ(parse_load_mode("util"), LoadMode::kCalibrated);
  EXPECT_THROW(parse_load_mode("bogus"), std::invalid_argument);
  for (const LoadMode m : {LoadMode::kSharedPeak, LoadMode::kPerClusterPeak,
                           LoadMode::kCalibrated}) {
    EXPECT_EQ(parse_load_mode(load_mode_name(m)), m);
  }
}

TEST(CommonFlags, DefaultsUntouchedWithoutFlags) {
  const ExperimentConfig base;
  const ExperimentConfig c = parse({});
  EXPECT_EQ(c.n_clusters, base.n_clusters);
  EXPECT_EQ(c.submit_horizon, base.submit_horizon);
  EXPECT_EQ(c.scheme, base.scheme);
  EXPECT_EQ(c.seed, base.seed);
}

TEST(CommonFlags, AppliesEachFlag) {
  const ExperimentConfig c = parse(
      {"--clusters=7", "--nodes=64", "--hours=3", "--algo=cbf",
       "--estimator=phi", "--scheme=R3", "--percent=40",
       "--placement=biased", "--load=peak", "--protocol=truncate",
       "--seed=99"});
  EXPECT_EQ(c.n_clusters, 7u);
  EXPECT_EQ(c.nodes_per_cluster, 64);
  EXPECT_DOUBLE_EQ(c.submit_horizon, 3.0 * 3600.0);
  EXPECT_EQ(c.algorithm, sched::Algorithm::kCbf);
  EXPECT_EQ(c.estimator, "phi");
  EXPECT_EQ(c.scheme, RedundancyScheme::fixed(3));
  EXPECT_DOUBLE_EQ(c.redundant_fraction, 0.4);
  EXPECT_EQ(c.placement, "biased");
  EXPECT_EQ(c.load_mode, LoadMode::kPerClusterPeak);
  EXPECT_FALSE(c.drain);
  EXPECT_EQ(c.seed, 99u);
}

TEST(CommonFlags, ExtensionFlags) {
  const ExperimentConfig c =
      parse({"--mw-rate=0.5", "--user-limit=2", "--users=16"});
  EXPECT_DOUBLE_EQ(c.middleware_ops_per_sec, 0.5);
  EXPECT_EQ(c.per_user_pending_limit, 2);
  EXPECT_EQ(c.users_per_cluster, 16);
  const ExperimentConfig d = parse({});
  EXPECT_EQ(d.middleware_ops_per_sec, 0.0);
  EXPECT_EQ(d.per_user_pending_limit, 0);
}

TEST(CommonFlags, PlacementLeastLoaded) {
  EXPECT_EQ(parse({"--placement=least-loaded"}).placement, "least-loaded");
}

TEST(CommonFlags, UtilFlagImpliesCalibratedMode) {
  const ExperimentConfig c = parse({"--util=0.8"});
  EXPECT_EQ(c.load_mode, LoadMode::kCalibrated);
  EXPECT_DOUBLE_EQ(c.target_utilization, 0.8);
}

TEST(CommonFlags, ProtocolDrain) {
  EXPECT_TRUE(parse({"--protocol=drain"}).drain);
  EXPECT_THROW(parse({"--protocol=xyz"}), std::invalid_argument);
}

TEST(CommonFlags, PdesAndLatencyFlags) {
  const ExperimentConfig base = parse({});
  EXPECT_FALSE(base.pdes);
  EXPECT_DOUBLE_EQ(base.cross_cluster_latency, 0.0);
  EXPECT_EQ(base.pdes_jobs, 0);

  const ExperimentConfig c = parse({"--pdes", "--latency=60", "--jobs=2"});
  EXPECT_TRUE(c.pdes);
  EXPECT_DOUBLE_EQ(c.cross_cluster_latency, 60.0);
  // --pdes snapshots the resolved worker count (--jobs here).
  EXPECT_EQ(c.pdes_jobs, 2);
  exec::set_default_jobs(0);  // --jobs is process-wide; don't leak it

  // Zero latency is valid: the degenerate path is the classic kernel.
  EXPECT_DOUBLE_EQ(parse({"--latency=0"}).cross_cluster_latency, 0.0);
}

TEST(CommonFlags, PdesWithOneWorkerFallsBackButStaysEnabled) {
  // jobs=1 still runs the windowed protocol (sequentially); the flag only
  // warns, it does not silently disable PDES.
  const ExperimentConfig c = parse({"--pdes", "--latency=1", "--jobs=1"});
  EXPECT_TRUE(c.pdes);
  EXPECT_EQ(c.pdes_jobs, 1);
  exec::set_default_jobs(0);  // --jobs is process-wide; don't leak it
}

TEST(CommonFlags, NegativeLatencyThrows) {
  EXPECT_THROW(parse({"--latency=-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--latency=-0.5", "--pdes"}), std::invalid_argument);
}

TEST(CommonFlags, WindowFlag) {
  EXPECT_EQ(parse({}).stream_window, 0u);  // default: whole-stream mode
  EXPECT_EQ(parse({"--window=256"}).stream_window, 256u);
  EXPECT_EQ(parse({"--window=0"}).stream_window, 0u);  // explicit disable
  EXPECT_THROW(parse({"--window=-1"}), std::invalid_argument);
}

TEST(CommonFlags, TraceCacheBudgetFlag) {
  // The trace cache has no byte budget: entries live until clear(). The
  // flag is not a common flag, so apply_common_flags leaves it unread and
  // every binary's reject_unread() reports it as unknown.
  const std::vector<const char*> argv{"prog", "--trace-cache-budget=1"};
  const util::Cli cli(static_cast<int>(argv.size()), argv.data());
  (void)apply_common_flags(ExperimentConfig{}, cli);
  try {
    cli.reject_unread();
    ADD_FAILURE() << "--trace-cache-budget was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "unknown flag --trace-cache-budget");
  }
}

TEST(CommonFlags, UsersFlagIsRangeCheckedBeforeTheIntConversion) {
  EXPECT_EQ(parse({"--users=4096"}).users_per_cluster, 4096);
  EXPECT_EQ(parse({"--users=1"}).users_per_cluster, 1);
  // 2^32 + 5 must be rejected, not wrapped to 5 by the int conversion.
  EXPECT_THROW(parse({"--users=4294967301"}), std::invalid_argument);
  EXPECT_THROW(parse({"--users=4097"}), std::invalid_argument);
  EXPECT_THROW(parse({"--users=0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--users=-3"}), std::invalid_argument);
}

TEST(CommonFlags, UtilFlagRejectsNonFiniteAndNonPositiveTargets) {
  EXPECT_DOUBLE_EQ(parse({"--util=1.5"}).target_utilization, 1.5);
  for (const char* flag : {"--util=nan", "--util=inf", "--util=-inf",
                           "--util=0", "--util=-0.5"}) {
    EXPECT_THROW(parse({flag}), std::invalid_argument) << flag;
  }
}

TEST(CommonFlags, ClustersFlagIsRangeCheckedBeforeTheConversion) {
  EXPECT_EQ(parse({"--clusters=1"}).n_clusters, 1u);
  EXPECT_EQ(parse({"--clusters=1048576"}).n_clusters, std::size_t{1} << 20);
  EXPECT_THROW(parse({"--clusters=1048577"}), std::invalid_argument);
  EXPECT_THROW(parse({"--clusters=0"}), std::invalid_argument);
  // -1 must not wrap to 2^64 - 1 and surface as a misleading bound error.
  try {
    parse({"--clusters=-1"});
    ADD_FAILURE() << "--clusters=-1 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--clusters"), std::string::npos)
        << e.what();
  }
}

TEST(CommonFlags, NodesFlagIsRangeCheckedBeforeTheIntConversion) {
  EXPECT_EQ(parse({"--nodes=2147483647"}).nodes_per_cluster, 2147483647);
  // 2^32 + 16 must be rejected, not wrapped to 16 by the int conversion.
  EXPECT_THROW(parse({"--nodes=4294967312"}), std::invalid_argument);
  EXPECT_THROW(parse({"--nodes=2147483648"}), std::invalid_argument);
  EXPECT_THROW(parse({"--nodes=0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--nodes=-4"}), std::invalid_argument);
}

TEST(CommonFlags, UserLimitFlagIsRangeCheckedBeforeTheIntConversion) {
  EXPECT_EQ(parse({"--user-limit=0"}).per_user_pending_limit, 0);
  EXPECT_EQ(parse({"--user-limit=2147483647"}).per_user_pending_limit,
            2147483647);
  // 2^32 + 1 must be rejected, not wrapped to a limit of 1.
  EXPECT_THROW(parse({"--user-limit=4294967297"}), std::invalid_argument);
  EXPECT_THROW(parse({"--user-limit=-1"}), std::invalid_argument);
}

TEST(CommonFlags, JobsFlagIsRangeCheckedBeforeTheIntConversion) {
  // 2^32 + 2 must be rejected, not wrapped to 2 workers by the int cast.
  EXPECT_THROW(parse({"--jobs=4294967298"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs=0"}), std::invalid_argument);
  exec::set_default_jobs(0);  // --jobs is process-wide; don't leak it
}

TEST(CommonFlags, JobsFlagAndEnvironmentFollowOneRule) {
  // --jobs and RRSIM_JOBS go through exec::user_jobs: both reject the
  // same spellings, and an accepted count is capped at the hardware
  // threads. Only resolved counts are read; no pool is started.
  exec::set_default_jobs(0);
  const char* outer = std::getenv("RRSIM_JOBS");
  const std::string saved = outer != nullptr ? outer : "";
  ASSERT_EQ(unsetenv("RRSIM_JOBS"), 0);
  const unsigned hw = std::thread::hardware_concurrency();
  const auto capped = [hw](int jobs) {
    return hw >= 1 && static_cast<unsigned>(jobs) > hw ? static_cast<int>(hw)
                                                        : jobs;
  };
  struct Case {
    const char* text;
    int jobs;  // 0: rejected
  };
  for (const Case& c : std::vector<Case>{{"1", 1},
                                         {"2", 2},
                                         {"4", 4},
                                         {"64", 64},
                                         {"4096", 4096},
                                         {"0", 0},
                                         {"-1", 0},
                                         {"4097", 0},
                                         {"2147483647", 0},
                                         {"4294967298", 0},
                                         {"+4", 0},
                                         {" 4", 0},
                                         {"4 ", 0},
                                         {"4.0", 0},
                                         {"0x10", 0},
                                         {"1e3", 0},
                                         {"abc", 0}}) {
    SCOPED_TRACE(c.text);
    const std::string flag = std::string("--jobs=") + c.text;
    int from_flag = 0;
    try {
      parse({flag.c_str()});
      from_flag = exec::default_jobs();
    } catch (const std::invalid_argument&) {
    }
    exec::set_default_jobs(0);
    ASSERT_EQ(setenv("RRSIM_JOBS", c.text, 1), 0);
    int from_env = 0;
    try {
      from_env = exec::resolve_jobs(0);
    } catch (const std::invalid_argument&) {
    }
    ASSERT_EQ(unsetenv("RRSIM_JOBS"), 0);
    const int want = c.jobs == 0 ? 0 : capped(c.jobs);
    EXPECT_EQ(from_flag, want);
    EXPECT_EQ(from_env, want);
    EXPECT_LE(want, exec::kMaxJobs);
  }
  // The hardware default obeys the same bound; an explicit count, as
  // tests and perfbench pass to CampaignSweep or PdesCoordinator, is used
  // as given.
  EXPECT_EQ(exec::default_jobs(), hw >= 1 ? capped(exec::kMaxJobs) : 1);
  EXPECT_EQ(exec::resolve_jobs(8), 8);
  if (outer != nullptr) {
    ASSERT_EQ(setenv("RRSIM_JOBS", saved.c_str(), 1), 0);
  }
}

TEST(CommonFlags, DoubleFlagsAreRangeChecked) {
  EXPECT_DOUBLE_EQ(parse({"--hours=0"}).submit_horizon, 0.0);
  EXPECT_DOUBLE_EQ(parse({"--percent=0"}).redundant_fraction, 0.0);
  EXPECT_DOUBLE_EQ(parse({"--percent=100"}).redundant_fraction, 1.0);
  EXPECT_DOUBLE_EQ(parse({"--mw-rate=0"}).middleware_ops_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(parse({"--mw-rate=2.5"}).middleware_ops_per_sec, 2.5);
  // Unchecked, NaN runs no jobs (--hours), turns redundancy off
  // (--percent), picks the zero-delay kernel (--latency) or turns
  // middleware off (--mw-rate), each silently; --hours=inf generates jobs
  // until allocation fails, and so did --hours=1e306, whose horizon in
  // seconds overflowed to infinity.
  for (const char* flag :
       {"--hours=-1", "--hours=nan", "--hours=inf", "--hours=1e306",
        "--percent=-5", "--percent=101", "--percent=nan", "--mw-rate=-3",
        "--mw-rate=nan", "--mw-rate=inf", "--latency=nan", "--latency=inf"}) {
    EXPECT_THROW(parse({flag}), std::invalid_argument) << flag;
  }
}

TEST(CommonFlags, BadValuesThrow) {
  EXPECT_THROW(parse({"--algo=unknown"}), std::invalid_argument);
  EXPECT_THROW(parse({"--scheme=R0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--load=none"}), std::invalid_argument);
  // Checked at the flag layer, before any set-up runs.
  EXPECT_THROW(parse({"--placement=bogus"}), std::invalid_argument);
  EXPECT_THROW(parse({"--estimator=bogus"}), std::invalid_argument);
}

TEST(CommonFlags, SeededCommandLinesThrowOrStayInRange) {
  // Each command line of 1-6 common flags either throws
  // std::invalid_argument or yields a config whose fields are in range;
  // any other exception fails the test.
  struct Flag {
    const char* name;
    std::vector<std::string> values;
  };
  // Every flag apply_common_flags reads, with values at and around its
  // bounds; for name-valued flags, every known name and unknown ones.
  const std::vector<Flag> flags{
      {"clusters", {"1", "2", "0", "-1", "1048576", "1048577"}},
      {"nodes", {"1", "64", "0", "-1", "2147483647", "2147483648"}},
      {"hours", {"0", "0.5", "-1", "-0.001", "1e300", "1e306"}},
      {"algo", {"easy", "cbf", "fcfs", "bogus", "EASY"}},
      {"estimator", {"exact", "phi", "uniform216", "bogus", "Exact"}},
      {"scheme", {"NONE", "R2", "R4", "HALF", "ALL", "R0", "R-1", "bogus"}},
      {"percent", {"0", "50", "100", "-1", "100.5", "101"}},
      {"placement", {"uniform", "biased", "least-loaded", "bogus", "Uniform"}},
      {"load", {"shared", "peak", "util", "bogus"}},
      {"util", {"0.8", "1.5", "0", "-1", "1e-300"}},
      {"protocol", {"drain", "truncate", "bogus"}},
      {"mw-rate", {"0", "2.5", "-1", "-1e-300"}},
      {"user-limit", {"0", "2", "-1", "2147483647", "2147483648"}},
      {"users", {"1", "16", "4096", "0", "4097"}},
      {"seed", {"1", "99", "-1", "9223372036854775807"}},
      {"window", {"0", "256", "-1"}},
      {"jobs", {"1", "2", "0", "-1", "2147483647", "2147483648"}},
      {"latency", {"0", "60", "-1", "-1e-300"}},
      {"pdes", {"true", "false", "1", "0", "maybe"}},
  };
  // Spellings no flag should misread: -0, one past either end of int64,
  // 1e400 (past double), non-finite values, trailing junk, hex and the
  // empty value.
  const std::vector<std::string> hostile{
      "-0", "9223372036854775808", "-9223372036854775809", "1e400", "nan",
      "inf", "-inf", "5abc", "0x10", ""};
  const std::set<std::string> placements{"uniform", "biased", "least-loaded"};
  const std::set<std::string> estimators{"exact", "phi", "uniform216"};
  util::Rng rng(2026);
  int accepted = 0;
  int rejected = 0;
  for (int line = 0; line < 4000; ++line) {
    std::vector<std::string> args{"prog"};
    const auto count = 1 + rng.below(6);
    for (std::uint64_t i = 0; i < count; ++i) {
      const Flag& flag = flags[rng.below(flags.size())];
      const std::string& value =
          rng.chance(0.7) ? flag.values[rng.below(flag.values.size())]
                          : hostile[rng.below(hostile.size())];
      args.push_back(std::string("--") + flag.name + "=" + value);
    }
    std::string shown;
    std::vector<const char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(arg.c_str());
      shown += " " + arg;
    }
    try {
      const util::Cli cli(static_cast<int>(argv.size()), argv.data());
      const ExperimentConfig c = apply_common_flags(ExperimentConfig{}, cli);
      ++accepted;
      EXPECT_GE(c.n_clusters, 1u) << shown;
      EXPECT_LE(c.n_clusters, std::size_t{1} << 20) << shown;
      EXPECT_GE(c.nodes_per_cluster, 1) << shown;
      EXPECT_GE(c.users_per_cluster, 1) << shown;
      EXPECT_LE(c.users_per_cluster, 4096) << shown;
      EXPECT_GE(c.per_user_pending_limit, 0) << shown;
      EXPECT_TRUE(std::isfinite(c.submit_horizon) && c.submit_horizon >= 0.0)
          << shown;
      EXPECT_TRUE(c.redundant_fraction >= 0.0 && c.redundant_fraction <= 1.0)
          << shown;
      EXPECT_TRUE(std::isfinite(c.target_utilization) &&
                  c.target_utilization > 0.0)
          << shown;
      EXPECT_TRUE(std::isfinite(c.middleware_ops_per_sec) &&
                  c.middleware_ops_per_sec >= 0.0)
          << shown;
      EXPECT_TRUE(std::isfinite(c.cross_cluster_latency) &&
                  c.cross_cluster_latency >= 0.0)
          << shown;
      EXPECT_EQ(placements.count(c.placement), 1u) << shown;
      EXPECT_EQ(estimators.count(c.estimator), 1u) << shown;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << shown << ": " << e.what();
    }
    exec::set_default_jobs(0);  // --jobs is process-wide; don't leak it
    if (HasFailure()) return;
  }
  // Both outcomes occur in at least a tenth of the lines, so neither side
  // of the contract goes untested.
  EXPECT_GT(accepted, 400);
  EXPECT_GT(rejected, 400);
}

}  // namespace
}  // namespace rrsim::core

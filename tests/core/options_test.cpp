#include "rrsim/core/options.h"

#include <gtest/gtest.h>

#include <string>

#include "rrsim/exec/jobs.h"
#include "rrsim/workload/trace_cache.h"

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
  workload::TraceCache& cache = workload::TraceCache::global();
  const std::size_t before = cache.byte_budget();
  EXPECT_EQ(before, 0u);  // default: unlimited, and no flag leaves it so
  parse({});
  EXPECT_EQ(cache.byte_budget(), 0u);

  parse({"--trace-cache-budget=1048576"});
  EXPECT_EQ(cache.byte_budget(), 1048576u);
  parse({"--trace-cache-budget=0"});  // explicit unlimited
  EXPECT_EQ(cache.byte_budget(), 0u);

  EXPECT_THROW(parse({"--trace-cache-budget=-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--trace-cache-budget=lots"}), std::invalid_argument);
  cache.set_byte_budget(0);  // process-wide; don't leak into other tests
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

TEST(CommonFlags, DoubleFlagsAreRangeChecked) {
  EXPECT_DOUBLE_EQ(parse({"--hours=0"}).submit_horizon, 0.0);
  EXPECT_DOUBLE_EQ(parse({"--percent=0"}).redundant_fraction, 0.0);
  EXPECT_DOUBLE_EQ(parse({"--percent=100"}).redundant_fraction, 1.0);
  EXPECT_DOUBLE_EQ(parse({"--mw-rate=0"}).middleware_ops_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(parse({"--mw-rate=2.5"}).middleware_ops_per_sec, 2.5);
  // Unchecked, NaN runs no jobs (--hours), turns redundancy off
  // (--percent), picks the zero-delay kernel (--latency) or turns
  // middleware off (--mw-rate), each silently; --hours=inf generates jobs
  // until allocation fails.
  for (const char* flag :
       {"--hours=-1", "--hours=nan", "--hours=inf", "--percent=-5",
        "--percent=101", "--percent=nan", "--mw-rate=-3", "--mw-rate=nan",
        "--mw-rate=inf", "--latency=nan", "--latency=inf"}) {
    EXPECT_THROW(parse({flag}), std::invalid_argument) << flag;
  }
}

TEST(CommonFlags, BadValuesThrow) {
  EXPECT_THROW(parse({"--algo=unknown"}), std::invalid_argument);
  EXPECT_THROW(parse({"--scheme=R0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--load=none"}), std::invalid_argument);
}

}  // namespace
}  // namespace rrsim::core

#include "rrsim/core/experiment.h"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <set>

#include "rrsim/core/paper.h"

namespace rrsim::core {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig c = figure_config_quick();
  c.n_clusters = 3;
  c.submit_horizon = 0.5 * 3600.0;
  c.seed = 7;
  return c;
}

TEST(Experiment, ValidatesConfig) {
  ExperimentConfig c = small_config();
  c.n_clusters = 0;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);

  c = small_config();
  c.cluster_nodes = {128, 128};  // wrong length for 3 clusters
  EXPECT_THROW(run_experiment(c), std::invalid_argument);

  c = small_config();
  c.cluster_mean_iat = {5.0};
  EXPECT_THROW(run_experiment(c), std::invalid_argument);

  c = small_config();
  c.redundant_fraction = 1.5;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);

  c = small_config();
  c.submit_horizon = -1.0;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);

  c = small_config();
  c.drain = false;
  c.truncate_factor = 0.0;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
}

TEST(Experiment, UserPopulationIsBoundedByTheUserIdStride) {
  // Cluster c's users are c * 4096 + [0, users_per_cluster): a larger
  // population would alias the next cluster's users under per-user limits.
  ExperimentConfig c = small_config();
  c.per_user_pending_limit = 2;
  c.users_per_cluster = 4097;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
  c.users_per_cluster = 4096;
  const SimResult r = run_experiment(c);
  EXPECT_EQ(r.records.size(), r.jobs_generated);
}

TEST(Experiment, ClusterCountIsBoundedByTheUserIdSpace) {
  // 2^20 clusters x 4096 users fill the 32-bit user id exactly; one more
  // cluster is rejected before anything is sized by the cluster count, on
  // either kernel.
  ExperimentConfig c = small_config();
  c.n_clusters = (std::size_t{1} << 20) + 1;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
  c.pdes = true;
  c.cross_cluster_latency = 60.0;
  c.pdes_jobs = 1;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
}

TEST(Experiment, NonFiniteLoadInputsAreRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ExperimentConfig c = small_config();
  c.cluster_mean_iat = {5.0, inf, 5.0};
  // ASSERT: a NaN rate below would otherwise generate (nearly) forever.
  ASSERT_THROW(run_experiment(c), std::invalid_argument);
  c.cluster_mean_iat = {5.0, nan, 5.0};
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
  c.cluster_mean_iat = {5.0, -1.0, 5.0};
  EXPECT_THROW(run_experiment(c), std::invalid_argument);

  c = small_config();
  c.load_mode = LoadMode::kCalibrated;
  for (const double target : {nan, inf, 0.0}) {
    c.target_utilization = target;
    EXPECT_THROW(run_experiment(c), std::invalid_argument) << target;
  }
}

TEST(Experiment, NonFiniteRunInputsAreRejected) {
  // NaN passes every `x < lo` check. Unchecked, a NaN horizon simulates
  // no jobs, a NaN fraction turns redundancy off, a NaN latency picks the
  // zero-delay kernel, a NaN or negative middleware rate turns middleware
  // off, and a NaN truncation factor drains the run and reports a NaN end
  // time.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ExperimentConfig c = small_config();
  // ASSERT: an infinite horizon would otherwise generate jobs until
  // allocation fails.
  c.submit_horizon = inf;
  ASSERT_THROW(run_experiment(c), std::invalid_argument);
  c.submit_horizon = nan;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);

  c = small_config();
  c.redundant_fraction = nan;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);

  c = small_config();
  c.pdes = true;
  c.pdes_jobs = 1;
  for (const double latency : {nan, inf, -inf}) {
    c.cross_cluster_latency = latency;
    EXPECT_THROW(run_experiment(c), std::invalid_argument) << latency;
  }

  c = small_config();
  for (const double rate : {-3.0, nan, inf}) {
    c.middleware_ops_per_sec = rate;
    EXPECT_THROW(run_experiment(c), std::invalid_argument) << rate;
  }

  c = small_config();
  c.drain = false;
  for (const double factor : {nan, inf}) {
    c.truncate_factor = factor;
    EXPECT_THROW(run_experiment(c), std::invalid_argument) << factor;
  }
}

TEST(Experiment, PredictionsNeedCbf) {
  // Only CBF records submit-time predictions; under FCFS or EASY a
  // prediction campaign would report accuracy over zero jobs.
  ExperimentConfig c = small_config();
  c.submit_horizon = 600.0;
  c.record_predictions = true;
  for (const sched::Algorithm algo :
       {sched::Algorithm::kFcfs, sched::Algorithm::kEasy}) {
    c.algorithm = algo;
    EXPECT_THROW(run_experiment(c), std::invalid_argument)
        << sched::algorithm_name(algo);
  }
  c.algorithm = sched::Algorithm::kCbf;
  const SimResult r = run_experiment(c);
  ASSERT_FALSE(r.records.empty());
  for (const metrics::JobRecord& rec : r.records) {
    EXPECT_TRUE(rec.has_prediction()) << rec.grid_id;
  }
}

TEST(Experiment, DrainCompletesEveryJob) {
  const SimResult r = run_experiment(small_config());
  EXPECT_GT(r.jobs_generated, 0u);
  EXPECT_EQ(r.records.size(), r.jobs_generated);
  EXPECT_EQ(r.ops.finishes, r.jobs_generated);
}

TEST(Experiment, TruncationKeepsOnlyCompletedJobs) {
  ExperimentConfig c = small_config();
  c.drain = false;
  c.truncate_factor = 1.0;
  const SimResult r = run_experiment(c);
  EXPECT_LE(r.records.size(), r.jobs_generated);
  for (const auto& rec : r.records) {
    EXPECT_LE(rec.finish_time, c.submit_horizon + 1e-9);
  }
}

TEST(Experiment, SchemeNoneHasSingleReplicas) {
  const SimResult r = run_experiment(small_config());
  for (const auto& rec : r.records) {
    EXPECT_FALSE(rec.redundant);
    EXPECT_EQ(rec.replicas, 1);
    EXPECT_EQ(rec.winner_cluster, rec.origin_cluster);
  }
}

TEST(Experiment, SchemeAllReplicatesEverywhere) {
  ExperimentConfig c = small_config();
  c.scheme = RedundancyScheme::all();
  const SimResult r = run_experiment(c);
  for (const auto& rec : r.records) {
    EXPECT_TRUE(rec.redundant);
    EXPECT_EQ(rec.replicas, 3);
  }
  EXPECT_GT(r.gateway_cancels, 0u);
}

TEST(Experiment, RedundantFractionSplitsPopulation) {
  ExperimentConfig c = small_config();
  c.scheme = RedundancyScheme::all();
  c.redundant_fraction = 0.5;
  const SimResult r = run_experiment(c);
  std::size_t redundant = 0;
  for (const auto& rec : r.records) {
    if (rec.redundant) ++redundant;
  }
  const double frac =
      static_cast<double>(redundant) / static_cast<double>(r.records.size());
  EXPECT_NEAR(frac, 0.5, 0.1);
}

TEST(Experiment, HeterogeneousClusterSizesRespected) {
  ExperimentConfig c = small_config();
  c.cluster_nodes = {16, 64, 256};
  c.scheme = RedundancyScheme::all();
  const SimResult r = run_experiment(c);
  for (const auto& rec : r.records) {
    // A job never runs on a cluster smaller than its node count, and
    // never exceeds its origin's size.
    EXPECT_LE(rec.nodes, c.cluster_nodes[rec.winner_cluster]);
    EXPECT_LE(rec.nodes, c.cluster_nodes[rec.origin_cluster]);
  }
}

TEST(Experiment, PerClusterIatOverride) {
  ExperimentConfig c = small_config();
  c.cluster_mean_iat = {30.0, 60.0, 120.0};
  const SimResult r = run_experiment(c);
  // Cluster 0 should originate roughly twice as many jobs as cluster 1.
  std::array<std::size_t, 3> counts{};
  for (const auto& rec : r.records) ++counts[rec.origin_cluster];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[2]);
}

TEST(Experiment, GridIdsUniqueAndDense) {
  const SimResult r = run_experiment(small_config());
  std::set<std::uint64_t> ids;
  for (const auto& rec : r.records) ids.insert(rec.grid_id);
  EXPECT_EQ(ids.size(), r.records.size());
  EXPECT_EQ(*ids.begin(), 1u);
  EXPECT_EQ(*ids.rbegin(), r.records.size());
}

TEST(Experiment, OpsCountersConsistent) {
  ExperimentConfig c = small_config();
  c.scheme = RedundancyScheme::fixed(2);
  const SimResult r = run_experiment(c);
  // Every grid job delivers `replicas_delivered` scheduler requests.
  std::uint64_t expected_submits = 0;
  for (const auto& rec : r.records) {
    expected_submits += static_cast<std::uint64_t>(rec.replicas_delivered);
    ASSERT_LE(rec.replicas_delivered, rec.replicas);
  }
  EXPECT_EQ(r.ops.submits, expected_submits);
  // starts == finishes == grid jobs; non-winning replicas were cancelled
  // or declined, never run.
  EXPECT_EQ(r.ops.starts, r.jobs_generated);
  EXPECT_EQ(r.ops.finishes, r.jobs_generated);
  EXPECT_EQ(r.gateway_cancels + r.jobs_generated, expected_submits);
}

TEST(Experiment, LoadModesProduceDifferentArrivalRates) {
  ExperimentConfig shared = small_config();
  ExperimentConfig peak = small_config();
  peak.load_mode = LoadMode::kPerClusterPeak;
  peak.submit_horizon = 600.0;  // keep the overloaded run small
  shared.submit_horizon = 600.0;
  const SimResult rs = run_experiment(shared);
  const SimResult rp = run_experiment(peak);
  // Per-cluster peak generates ~n_clusters times more jobs.
  EXPECT_GT(rp.jobs_generated, 2 * rs.jobs_generated);
}

TEST(Experiment, CalibratedModeHitsModerateLoad) {
  ExperimentConfig c = small_config();
  c.load_mode = LoadMode::kCalibrated;
  c.target_utilization = 0.5;
  c.submit_horizon = 4 * 3600.0;
  const SimResult r = run_experiment(c);
  // At 50% load with drain, the tail past the horizon is bounded by the
  // last jobs' own runtimes (clamped at max_runtime), not by backlog.
  EXPECT_LT(r.end_time,
            c.submit_horizon + c.base_workload.max_runtime + 3600.0);
}

TEST(Experiment, QueueGrowthReportedPerCluster) {
  ExperimentConfig c = small_config();
  const SimResult r = run_experiment(c);
  EXPECT_EQ(r.queue_growth_per_hour.size(), c.n_clusters);
}

TEST(PaperConfig, MatchesDocumentedDefaults) {
  const ExperimentConfig c = figure_config();
  EXPECT_EQ(c.n_clusters, 10u);
  EXPECT_EQ(c.nodes_per_cluster, 128);
  EXPECT_EQ(c.algorithm, sched::Algorithm::kEasy);
  EXPECT_EQ(c.load_mode, LoadMode::kSharedPeak);
  EXPECT_DOUBLE_EQ(c.submit_horizon, 6.0 * 3600.0);
  EXPECT_NEAR(c.base_workload.mean_interarrival(), kFigureBaseInterarrival,
              1e-9);
  EXPECT_TRUE(c.scheme.is_none());
}

}  // namespace
}  // namespace rrsim::core

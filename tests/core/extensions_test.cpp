// End-to-end coverage of the extension features through the experiment
// engine: middleware stations, per-user limits, informed placement.
#include <gtest/gtest.h>

#include "rrsim/core/campaign.h"
#include "rrsim/core/paper.h"
#include "rrsim/grid/gateway.h"
#include "rrsim/grid/platform.h"
#include "rrsim/workload/swf.h"

namespace rrsim::core {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig c = figure_config_quick();
  c.n_clusters = 4;
  c.submit_horizon = 0.5 * 3600.0;
  c.seed = 17;
  return c;
}

TEST(MiddlewareExperiment, StatsPopulatedAndJobsConserved) {
  ExperimentConfig c = small_config();
  c.scheme = RedundancyScheme::all();
  c.middleware_ops_per_sec = 5.0;
  const SimResult r = run_experiment(c);
  EXPECT_EQ(r.records.size(), r.jobs_generated);
  EXPECT_GT(r.middleware_max_backlog, 0.0);
  EXPECT_GT(r.middleware_mean_sojourn, 0.0);
  // Service is 0.2 s/op; sojourn can exceed it only via queueing.
  EXPECT_GE(r.middleware_mean_sojourn, 0.2 - 1e-9);
}

TEST(MiddlewareExperiment, SlowerMiddlewareMeansLongerSojourn) {
  ExperimentConfig fast = small_config();
  fast.scheme = RedundancyScheme::all();
  fast.middleware_ops_per_sec = 50.0;
  ExperimentConfig slow = fast;
  slow.middleware_ops_per_sec = 0.5;
  const SimResult rf = run_experiment(fast);
  const SimResult rs = run_experiment(slow);
  EXPECT_GT(rs.middleware_mean_sojourn, rf.middleware_mean_sojourn);
  EXPECT_GE(rs.middleware_max_backlog, rf.middleware_max_backlog);
}

TEST(MiddlewareExperiment, DisabledByDefault) {
  const SimResult r = run_experiment(small_config());
  EXPECT_EQ(r.middleware_max_backlog, 0.0);
  EXPECT_EQ(r.middleware_mean_sojourn, 0.0);
}

TEST(MiddlewareExperiment, IncompatibleWithPredictions) {
  ExperimentConfig c = small_config();
  c.algorithm = sched::Algorithm::kCbf;  // predictions need CBF anyway
  c.middleware_ops_per_sec = 1.0;
  c.record_predictions = true;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
}

TEST(UserLimitExperiment, TrimsReplicasButConservesJobs) {
  ExperimentConfig c = small_config();
  c.scheme = RedundancyScheme::all();
  c.users_per_cluster = 2;
  c.per_user_pending_limit = 1;
  const SimResult r = run_experiment(c);
  EXPECT_EQ(r.records.size(), r.jobs_generated);
  EXPECT_GT(r.replicas_rejected, 0u);
  // Delivered replicas never exceed intent.
  for (const auto& rec : r.records) {
    EXPECT_LE(rec.replicas_delivered, rec.replicas);
    EXPECT_GE(rec.replicas_delivered, 1);
  }
}

TEST(UserLimitExperiment, TighterCapRejectsMore) {
  ExperimentConfig loose = small_config();
  loose.scheme = RedundancyScheme::all();
  loose.users_per_cluster = 2;
  loose.per_user_pending_limit = 8;
  ExperimentConfig tight = loose;
  tight.per_user_pending_limit = 1;
  const SimResult rl = run_experiment(loose);
  const SimResult rt = run_experiment(tight);
  EXPECT_GT(rt.replicas_rejected, rl.replicas_rejected);
}

TEST(UserLimitExperiment, ValidatesConfiguration) {
  ExperimentConfig c = small_config();
  c.per_user_pending_limit = -1;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
  c = small_config();
  c.users_per_cluster = 0;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
}

TEST(InformedPlacementExperiment, RunsAndBeatsBlindChoiceHere) {
  // N = 10 (the figure regime, where redundancy helps): least-loaded
  // targeting must be at least as good as blind uniform choice.
  ExperimentConfig blind = figure_config();
  blind.submit_horizon = 1.5 * 3600.0;
  blind.seed = 17;
  blind.scheme = RedundancyScheme::fixed(2);
  ExperimentConfig informed = blind;
  informed.placement = "least-loaded";
  const RelativeMetrics rb = run_relative_campaign(blind, 3);
  const RelativeMetrics ri = run_relative_campaign(informed, 3);
  EXPECT_LE(ri.rel_avg_stretch, rb.rel_avg_stretch * 1.1);
  EXPECT_LT(ri.rel_avg_stretch, 1.0);
}

TEST(MoldableGateway, WorksThroughMiddlewareToo) {
  // Shaped replicas + middleware stations compose.
  ExperimentConfig c = small_config();
  (void)c;  // engine-level moldable submission is exercised at grid level;
            // this test pins that the pieces at least coexist in one sim.
  des::Simulation sim;
  grid::Platform platform(sim, std::vector<int>(1, 8),
                          sched::Algorithm::kEasy);
  grid::Gateway gateway(platform);
  grid::MiddlewareStation station(sim, 2.0);
  gateway.set_middleware({&station});
  grid::GridJob job;
  job.id = 1;
  job.origin = 0;
  job.targets = {0, 0};
  workload::JobSpec wide;
  wide.nodes = 8;
  wide.runtime = 10.0;
  wide.requested_time = 10.0;
  workload::JobSpec narrow;
  narrow.nodes = 4;
  narrow.runtime = 18.0;
  narrow.requested_time = 18.0;
  job.spec = wide;
  job.replica_specs = {wide, narrow};
  job.redundant = true;
  gateway.submit(job);
  sim.run();
  ASSERT_EQ(gateway.records().size(), 1u);
  EXPECT_GT(station.processed(), 0u);
}

TEST(TraceReplayExperiment, ReplaysSwfAcrossClusters) {
  // Generate a trace, write it to disk, replay it on a two-cluster
  // platform with redundancy — the paper's cross-check workflow.
  util::Rng rng(3);
  const workload::LublinModel model(
      workload::LublinParams{}.with_mean_interarrival(60.0), 64);
  workload::JobStream stream = model.generate_stream(rng, 3600.0);
  ASSERT_FALSE(stream.empty());
  const std::string path = ::testing::TempDir() + "/rrsim_trace.swf";
  workload::write_swf_file(path, stream);

  ExperimentConfig c;
  c.n_clusters = 2;
  c.nodes_per_cluster = 64;
  c.submit_horizon = 3600.0;
  c.trace_files = {path};
  c.scheme = RedundancyScheme::all();
  const SimResult r = run_experiment(c);
  // Both clusters replay the same trace.
  EXPECT_EQ(r.jobs_generated, 2 * stream.size());
  EXPECT_EQ(r.records.size(), r.jobs_generated);
  // Requested times come from the trace (exact here), not an estimator.
  for (const auto& rec : r.records) {
    EXPECT_LE(rec.actual_time, rec.requested_time + 1e-9);
  }
}

TEST(TraceReplayExperiment, SkipsJobsWiderThanCluster) {
  util::Rng rng(4);
  const workload::LublinModel model(
      workload::LublinParams{}.with_mean_interarrival(60.0), 128);
  workload::JobStream stream = model.generate_stream(rng, 3600.0);
  const std::string path = ::testing::TempDir() + "/rrsim_trace_wide.swf";
  workload::write_swf_file(path, stream);
  std::size_t fitting = 0;
  for (const auto& s : stream) {
    if (s.nodes <= 16) ++fitting;
  }
  ExperimentConfig c;
  c.n_clusters = 1;
  c.nodes_per_cluster = 16;  // most of the trace does not fit
  c.submit_horizon = 3600.0;
  c.trace_files = {path};
  const SimResult r = run_experiment(c);
  EXPECT_EQ(r.jobs_generated, fitting);
}

}  // namespace
}  // namespace rrsim::core

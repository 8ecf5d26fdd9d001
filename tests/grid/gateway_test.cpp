#include "rrsim/grid/gateway.h"

#include <gtest/gtest.h>

#include <limits>

#include "rrsim/exec/pdes.h"
#include "rrsim/grid/platform.h"
#include "rrsim/util/rng.h"

namespace rrsim::grid {
namespace {

struct Fixture {
  des::Simulation sim;
  Platform platform;
  Gateway gateway;

  explicit Fixture(std::size_t n, int nodes = 8,
                   sched::Algorithm algo = sched::Algorithm::kEasy,
                   bool predictions = false)
      : platform(sim, std::vector<int>(n, nodes), algo),
        gateway(platform, predictions) {}
};

GridJob make_grid_job(GridJobId id, std::size_t origin,
                      std::vector<std::size_t> targets, int nodes,
                      double runtime, double requested = -1.0) {
  GridJob job;
  job.id = id;
  job.origin = origin;
  job.targets = std::move(targets);
  job.redundant = job.targets.size() > 1;
  job.spec.nodes = nodes;
  job.spec.runtime = runtime;
  job.spec.requested_time = requested < 0.0 ? runtime : requested;
  return job;
}

TEST(Gateway, SingleTargetJobRunsLocally) {
  Fixture f(3);
  f.gateway.submit(make_grid_job(1, 1, {1}, 4, 50.0));
  f.sim.run();
  ASSERT_EQ(f.gateway.records().size(), 1u);
  const metrics::JobRecord& r = f.gateway.records()[0];
  EXPECT_EQ(r.winner_cluster, 1u);
  EXPECT_EQ(r.origin_cluster, 1u);
  EXPECT_FALSE(r.redundant);
  EXPECT_EQ(r.replicas, 1);
  EXPECT_EQ(r.finish_time, 50.0);
}

TEST(Gateway, ValidatesSubmissions) {
  Fixture f(3);
  EXPECT_THROW(f.gateway.submit(make_grid_job(1, 0, {}, 1, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(f.gateway.submit(make_grid_job(2, 0, {1, 2}, 1, 1.0)),
               std::invalid_argument);  // origin not in targets
  EXPECT_THROW(f.gateway.submit(make_grid_job(3, 0, {0, 1, 1}, 1, 1.0)),
               std::invalid_argument);  // duplicate target
  EXPECT_THROW(f.gateway.submit(make_grid_job(4, 0, {0}, 1, 1.0), 0.5),
               std::invalid_argument);  // inflation < 1
  f.gateway.submit(make_grid_job(5, 0, {0}, 1, 1.0));
  EXPECT_THROW(f.gateway.submit(make_grid_job(5, 0, {0}, 1, 1.0)),
               std::invalid_argument);  // duplicate grid id
}

TEST(Gateway, RejectsUnknownClustersBeforeAnyStateChanges) {
  Fixture f(2);
  EXPECT_THROW(f.gateway.submit(make_grid_job(1, 0, {0, 5}, 4, 10.0)),
               std::invalid_argument);  // target outside the platform
  EXPECT_THROW(f.gateway.submit(make_grid_job(1, 7, {7}, 4, 10.0)),
               std::invalid_argument);  // origin outside the platform
  EXPECT_EQ(f.gateway.submitted(), 0u);
  EXPECT_EQ(f.platform.total_counters().submits, 0u);
  // The rejected id is still free: the corrected job goes through.
  f.gateway.submit(make_grid_job(1, 0, {0, 1}, 4, 10.0));
  f.sim.run();
  EXPECT_EQ(f.gateway.submitted(), 1u);
  EXPECT_EQ(f.gateway.finished(), 1u);
}

TEST(Gateway, ReplicaIdsEndAtThe32BitBoundary) {
  constexpr std::uint64_t kMax = std::numeric_limits<sched::JobId>::max();
  // One partition mints 1, 2, 3, ...
  EXPECT_EQ(Gateway::replica_id(0, 1, 0), 1u);
  EXPECT_EQ(Gateway::replica_id(0, 1, kMax - 1), kMax);
  EXPECT_THROW(Gateway::replica_id(0, 1, kMax), std::length_error);
  // Eight partitions: partition p mints p + 1 + 8k.
  EXPECT_EQ(Gateway::replica_id(3, 8, 2), 20u);
  EXPECT_EQ(Gateway::replica_id(0, 8, 536870911), 4294967289u);
  EXPECT_THROW(Gateway::replica_id(0, 8, 536870912), std::length_error);
  EXPECT_EQ(Gateway::replica_id(7, 8, 536870910), 4294967288u);
  EXPECT_THROW(Gateway::replica_id(7, 8, 536870911), std::length_error);
}

TEST(Gateway, SingleInstantFeaturesNeedOnePartition) {
  exec::PdesCoordinator coord(2, 5.0, 1);
  Platform platform(coord, std::vector<int>(2, 8), sched::Algorithm::kEasy);
  EXPECT_THROW(Gateway(platform, /*record_predictions=*/true),
               std::invalid_argument);
  Gateway gateway(platform);
  MiddlewareStation s0(coord.partition(0), 1.0);
  MiddlewareStation s1(coord.partition(1), 1.0);
  EXPECT_THROW(gateway.set_middleware({&s0, &s1}), std::invalid_argument);
  metrics::OnlineAccumulator sink;
  EXPECT_THROW(gateway.set_record_sink(&sink), std::invalid_argument);
  GridJob shaped = make_grid_job(1, 0, {0, 0}, 4, 10.0);
  shaped.replica_specs = {shaped.spec, shaped.spec};
  EXPECT_THROW(gateway.submit(shaped), std::invalid_argument);
  EXPECT_EQ(gateway.submitted(), 0u);
  EXPECT_THROW((void)gateway.records(), std::logic_error);
}

TEST(Gateway, RemoteWinnerRecordKeepsTheUsersSubmitInstant) {
  // Cluster 0 is busy, so the remote replica on cluster 1 wins: it entered
  // its queue one latency after the user submitted, and the record keeps
  // the user's instant.
  constexpr double kLatency = 5.0;
  exec::PdesCoordinator coord(2, kLatency, 1);
  Platform platform(coord, std::vector<int>(2, 8), sched::Algorithm::kEasy);
  Gateway gateway(platform);
  coord.partition(0).schedule_at(1.0, [&gateway] {
    gateway.submit(make_grid_job(1, 0, {0}, 8, 100.0));
    gateway.submit(make_grid_job(2, 0, {0, 1}, 4, 10.0));
  });
  coord.run();
  const metrics::JobRecords records = gateway.take_records();
  ASSERT_EQ(records.size(), 2u);
  const metrics::JobRecord& remote =
      records[0].grid_id == 2 ? records[0] : records[1];
  EXPECT_EQ(remote.winner_cluster, 1u);
  EXPECT_EQ(remote.submit_time, 1.0);
  EXPECT_EQ(remote.start_time, 1.0 + kLatency);
  EXPECT_EQ(gateway.duplicate_starts(), 0u);
  EXPECT_EQ(gateway.finished(), 2u);
}

TEST(Gateway, JobRunsExactlyOnceDespiteReplicas) {
  Fixture f(4);
  f.gateway.submit(make_grid_job(1, 0, {0, 1, 2, 3}, 8, 30.0));
  f.sim.run();
  ASSERT_EQ(f.gateway.records().size(), 1u);
  EXPECT_EQ(f.gateway.finished(), 1u);
  // All four qsubs are issued (direct delivery never drops); the three
  // losing replicas are declined at their grants, each counting as one
  // cancellation.
  EXPECT_EQ(f.gateway.replicas_dropped(), 0u);
  EXPECT_EQ(f.gateway.cancellations_issued(), 3u);
  // Only one cluster actually ran anything.
  int clusters_with_work = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    if (f.platform.scheduler(c).counters().starts > 0) ++clusters_with_work;
  }
  EXPECT_EQ(clusters_with_work, 1);
}

TEST(Gateway, ReplicaWinsOnLeastLoadedCluster) {
  Fixture f(2);
  // Occupy cluster 0 for a long time.
  f.gateway.submit(make_grid_job(1, 0, {0}, 8, 1000.0));
  // A redundant job must win on the idle cluster 1 immediately.
  f.gateway.submit(make_grid_job(2, 0, {0, 1}, 8, 10.0));
  f.sim.run_until(0.0);
  // Find record... job 2 finishes at t=10.
  f.sim.run_until(10.0);
  ASSERT_EQ(f.gateway.records().size(), 1u);
  EXPECT_EQ(f.gateway.records()[0].grid_id, 2u);
  EXPECT_EQ(f.gateway.records()[0].winner_cluster, 1u);
  EXPECT_EQ(f.gateway.records()[0].start_time, 0.0);
  f.sim.run();
}

TEST(Gateway, SimultaneousGrantsResolveToOneStart) {
  // Two idle clusters grant the same grid job at the same instant (at
  // submission); exactly one start must win, the other replica declined.
  Fixture f(2);
  f.gateway.submit(make_grid_job(1, 0, {0, 1}, 4, 25.0));
  f.sim.run();
  ASSERT_EQ(f.gateway.records().size(), 1u);
  const auto total = f.platform.total_counters();
  EXPECT_EQ(total.starts, 1u);
  EXPECT_EQ(total.finishes, 1u);
  // Both same-instant qsubs reach their schedulers; the loser is declined
  // at its grant and recorded as one cancellation.
  EXPECT_EQ(total.submits, 2u);
  EXPECT_EQ(f.gateway.cancellations_issued(), 1u);
}

TEST(Gateway, RemoteInflationAppliedOnlyToRemoteReplicas) {
  Fixture f(2);
  // Make cluster 1 busy so the local replica wins and we can inspect its
  // requested time; remote replica goes to cluster 1's queue.
  f.gateway.submit(make_grid_job(1, 1, {1}, 8, 500.0));
  f.gateway.submit(make_grid_job(2, 0, {0, 1}, 2, 40.0, 40.0));
  f.sim.run_until(0.0);
  f.sim.run_until(45.0);
  // Job 2 won at its origin (cluster 0): requested stays 40.
  bool found = false;
  for (const auto& r : f.gateway.records()) {
    if (r.grid_id == 2) {
      EXPECT_EQ(r.winner_cluster, 0u);
      EXPECT_DOUBLE_EQ(r.requested_time, 40.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  f.sim.run();
}

TEST(Gateway, RemoteInflationVisibleWhenRemoteWins) {
  Fixture f(2);
  // Local cluster 0 busy; remote cluster 1 idle -> remote replica wins
  // with inflated requested time.
  f.gateway.submit(make_grid_job(1, 0, {0}, 8, 500.0));
  f.gateway.submit(make_grid_job(2, 0, {0, 1}, 2, 40.0, 40.0), 1.5);
  f.sim.run();
  for (const auto& r : f.gateway.records()) {
    if (r.grid_id == 2) {
      EXPECT_EQ(r.winner_cluster, 1u);
      EXPECT_DOUBLE_EQ(r.requested_time, 60.0);  // 40 * 1.5
      EXPECT_DOUBLE_EQ(r.actual_time, 40.0);
    }
  }
}

TEST(Gateway, RecordsCarryClassAndReplicaCount) {
  Fixture f(3);
  f.gateway.submit(make_grid_job(1, 0, {0, 1, 2}, 2, 10.0));
  f.gateway.submit(make_grid_job(2, 1, {1}, 2, 10.0));
  f.sim.run();
  ASSERT_EQ(f.gateway.records().size(), 2u);
  for (const auto& r : f.gateway.records()) {
    if (r.grid_id == 1) {
      EXPECT_TRUE(r.redundant);
      EXPECT_EQ(r.replicas, 3);
    } else {
      EXPECT_FALSE(r.redundant);
      EXPECT_EQ(r.replicas, 1);
    }
  }
}

TEST(Gateway, PredictionRecordedAsMinOverReplicas) {
  Fixture f(2, 8, sched::Algorithm::kCbf, /*predictions=*/true);
  // Cluster 0 busy until 100; cluster 1 busy until 30.
  f.gateway.submit(make_grid_job(1, 0, {0}, 8, 100.0));
  f.gateway.submit(make_grid_job(2, 1, {1}, 8, 30.0));
  f.gateway.submit(make_grid_job(3, 0, {0, 1}, 8, 10.0));
  f.sim.run();
  for (const auto& r : f.gateway.records()) {
    if (r.grid_id == 3) {
      ASSERT_TRUE(r.has_prediction());
      EXPECT_DOUBLE_EQ(r.predicted_start, 30.0);  // min(100, 30)
      EXPECT_EQ(r.start_time, 30.0);
    }
  }
}

TEST(Gateway, ManyRedundantJobsConservation_Property) {
  Fixture f(4, 16);
  util::Rng rng(5);
  GridJobId id = 1;
  double t = 0.0;
  std::vector<GridJob> jobs;
  for (int i = 0; i < 200; ++i) {
    t += rng.uniform(0.0, 5.0);
    const std::size_t origin = rng.below(4);
    std::vector<std::size_t> targets{origin};
    for (std::size_t c = 0; c < 4; ++c) {
      if (c != origin && rng.chance(0.5)) targets.push_back(c);
    }
    GridJob job = make_grid_job(id++, origin, targets,
                                static_cast<int>(rng.between(1, 16)),
                                rng.uniform(1.0, 60.0));
    job.spec.submit_time = t;
    jobs.push_back(job);
  }
  for (const GridJob& job : jobs) {
    f.sim.schedule_at(job.spec.submit_time,
                      [&g = f.gateway, &job] { g.submit(job); },
                      des::Priority::kArrival);
  }
  f.sim.run();
  // Conservation: every grid job finished exactly once.
  EXPECT_EQ(f.gateway.records().size(), 200u);
  EXPECT_EQ(f.gateway.submitted(), 200u);
  EXPECT_EQ(f.gateway.finished(), 200u);
  const auto total = f.platform.total_counters();
  EXPECT_EQ(total.starts, 200u);
  EXPECT_EQ(total.finishes, 200u);
  // Accounting identity: every accepted replica either ran (one per grid
  // job) or was cancelled/declined exactly once.
  EXPECT_EQ(f.gateway.cancellations_issued() + 200u, total.submits);
  // Total work delivered equals the sum of job work (no duplicate runs):
  double expected = 0.0;
  for (const GridJob& j : jobs) {
    expected += j.spec.runtime * j.spec.nodes;
  }
  double measured = 0.0;
  for (const auto& r : f.gateway.records()) {
    measured += r.actual_time * r.nodes;
  }
  EXPECT_NEAR(measured, expected, 1e-6 * expected);
}

}  // namespace
}  // namespace rrsim::grid

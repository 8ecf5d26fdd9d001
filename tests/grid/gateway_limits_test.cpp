// Gateway behaviour under per-user pending limits: origin replicas are
// exempt, remote replicas get trimmed, every job still runs exactly once.
#include <gtest/gtest.h>

#include "rrsim/grid/gateway.h"
#include "rrsim/grid/platform.h"
#include "rrsim/util/rng.h"

namespace rrsim::grid {
namespace {

struct Fixture {
  des::Simulation sim;
  Platform platform;
  Gateway gateway;

  explicit Fixture(std::size_t n, int limit)
      : platform(sim, std::vector<int>(n, 8), sched::Algorithm::kEasy),
        gateway(platform) {
    for (std::size_t i = 0; i < n; ++i) {
      platform.scheduler(i).set_per_user_pending_limit(limit);
    }
  }
};

GridJob make_grid_job(GridJobId id, std::size_t origin,
                      std::vector<std::size_t> targets, sched::UserId user,
                      double runtime = 50.0) {
  GridJob job;
  job.id = id;
  job.origin = origin;
  job.user = user;
  job.targets = std::move(targets);
  job.redundant = job.targets.size() > 1;
  job.spec.nodes = 8;
  job.spec.runtime = runtime;
  job.spec.requested_time = runtime;
  return job;
}

TEST(GatewayLimits, RemoteReplicasTrimmedLocalAlwaysAccepted) {
  Fixture f(3, /*limit=*/1);
  // Fill every cluster with a long job, then queue one pending job per
  // cluster for user 7 so the user is at the cap everywhere.
  f.gateway.submit(make_grid_job(1, 0, {0}, 99, 1000.0));
  f.gateway.submit(make_grid_job(2, 1, {1}, 99, 1000.0));
  f.gateway.submit(make_grid_job(3, 2, {2}, 99, 1000.0));
  f.gateway.submit(make_grid_job(4, 0, {0}, 7));
  f.gateway.submit(make_grid_job(5, 1, {1}, 7));
  f.gateway.submit(make_grid_job(6, 2, {2}, 7));
  // User 7's redundant job: remote replicas must be refused (cap hit at
  // clusters 1 and 2), the origin replica accepted despite the cap.
  f.gateway.submit(make_grid_job(7, 0, {0, 1, 2}, 7));
  EXPECT_EQ(f.gateway.replicas_rejected(), 2u);
  f.sim.run();
  // Every job still ran exactly once.
  EXPECT_EQ(f.gateway.records().size(), 7u);
  for (const auto& rec : f.gateway.records()) {
    if (rec.grid_id == 7) {
      EXPECT_EQ(rec.replicas, 3);            // the user sent three
      EXPECT_EQ(rec.replicas_delivered, 1);  // trimmed to the origin one
      EXPECT_TRUE(rec.redundant);  // the user *tried* to use redundancy
      EXPECT_EQ(rec.winner_cluster, 0u);
    }
  }
}

TEST(GatewayLimits, UnlimitedWhenNoCapConfigured) {
  Fixture unlimited(3, /*limit=*/1);
  // Reconfigure: no limit on cluster 1 only.
  unlimited.platform.scheduler(1).set_per_user_pending_limit(std::nullopt);
  unlimited.gateway.submit(make_grid_job(1, 0, {0}, 99, 1000.0));
  unlimited.gateway.submit(make_grid_job(2, 1, {1}, 99, 1000.0));
  unlimited.gateway.submit(make_grid_job(3, 0, {0}, 7));
  unlimited.gateway.submit(make_grid_job(4, 1, {1}, 7));
  unlimited.gateway.submit(make_grid_job(5, 0, {0, 1}, 7));
  // Cluster 1 has no cap, so only... cluster 1's replica is accepted and
  // cluster 0's origin replica is exempt: nothing rejected.
  EXPECT_EQ(unlimited.gateway.replicas_rejected(), 0u);
  unlimited.sim.run();
  EXPECT_EQ(unlimited.gateway.records().size(), 5u);
}

TEST(GatewayLimits, ConservationUnderTightCaps) {
  Fixture f(4, /*limit=*/1);
  util::Rng rng(3);
  GridJobId id = 1;
  double t = 0.0;
  std::vector<GridJob> jobs;
  for (int i = 0; i < 120; ++i) {
    t += rng.uniform(0.0, 10.0);
    const std::size_t origin = rng.below(4);
    std::vector<std::size_t> targets{origin};
    for (std::size_t c = 0; c < 4; ++c) {
      if (c != origin) targets.push_back(c);
    }
    GridJob job = make_grid_job(id++, origin, targets,
                                static_cast<sched::UserId>(rng.below(3)),
                                rng.uniform(1.0, 60.0));
    job.spec.nodes = static_cast<int>(rng.between(1, 8));
    job.spec.submit_time = t;
    jobs.push_back(job);
  }
  for (const GridJob& job : jobs) {
    f.sim.schedule_at(job.spec.submit_time,
                      [&g = f.gateway, &job] { g.submit(job); },
                      des::Priority::kArrival);
  }
  f.sim.run();
  EXPECT_EQ(f.gateway.records().size(), 120u);  // every job ran once
  EXPECT_GT(f.gateway.replicas_rejected(), 0u);  // and the cap did bind
}

}  // namespace
}  // namespace rrsim::grid

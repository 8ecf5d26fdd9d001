// Gateway replica accounting under middleware-delayed delivery: the
// deferred branch of deliver_submit drops a replica whose job already
// started while its qsub sat in a middleware queue (counted by
// replicas_dropped(), never reaching a scheduler), and per-user pending
// limits still reject late-delivered remote replicas (counted by
// replicas_rejected()). Direct-delivery runs exercise neither branch.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rrsim/grid/gateway.h"
#include "rrsim/grid/middleware.h"
#include "rrsim/grid/platform.h"

namespace rrsim::grid {
namespace {

struct Fixture {
  des::Simulation sim;
  Platform platform;
  Gateway gateway;
  std::vector<std::unique_ptr<MiddlewareStation>> stations;

  Fixture(std::size_t n, const std::vector<double>& rates)
      : platform(sim, std::vector<int>(n, 8), sched::Algorithm::kEasy),
        gateway(platform) {
    std::vector<MiddlewareStation*> raw;
    for (std::size_t i = 0; i < n; ++i) {
      stations.push_back(std::make_unique<MiddlewareStation>(sim, rates[i]));
      raw.push_back(stations.back().get());
    }
    gateway.set_middleware(std::move(raw));
  }
};

GridJob make_grid_job(GridJobId id, std::size_t origin,
                      std::vector<std::size_t> targets, sched::UserId user,
                      double runtime) {
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

TEST(GatewayMiddlewareDrop, LateReplicaDroppedBeforeReachingScheduler) {
  // Cluster 0's middleware delivers in 1 s, cluster 1's in 4 s. The
  // origin replica lands at t=1 on an idle cluster and starts; the remote
  // qsub is still in cluster 1's station and must be dropped on delivery
  // at t=4 — it never becomes a scheduler submission, and no qdel is ever
  // needed for it.
  Fixture f(2, {1.0, 0.25});
  f.gateway.submit(make_grid_job(1, 0, {0, 1}, 7, 10.0));
  f.sim.run();

  EXPECT_EQ(f.gateway.replicas_dropped(), 1u);
  EXPECT_EQ(f.gateway.replicas_rejected(), 0u);
  EXPECT_EQ(f.gateway.cancellations_issued(), 0u);
  const auto total = f.platform.total_counters();
  EXPECT_EQ(total.submits, 1u);  // the dropped replica never arrived
  EXPECT_EQ(total.starts, 1u);
  EXPECT_EQ(total.cancels, 0u);
  ASSERT_EQ(f.gateway.records().size(), 1u);
  EXPECT_EQ(f.gateway.records()[0].replicas, 2);
  EXPECT_EQ(f.gateway.records()[0].replicas_delivered, 1);
  EXPECT_EQ(f.gateway.records()[0].winner_cluster, 0u);
  EXPECT_DOUBLE_EQ(f.gateway.records()[0].start_time, 1.0);
}

TEST(GatewayMiddlewareDrop, SameInstantDeliveryDropsTheLoser) {
  // Equal rates: both replicas deliver at t=1. Delivery events fire in
  // enqueue order (origin first), so the origin wins and the remote
  // replica observes started==true in the same dispatch pass — the
  // deferred drop, not a decline-after-submit.
  Fixture f(2, {1.0, 1.0});
  f.gateway.submit(make_grid_job(1, 0, {0, 1}, 7, 5.0));
  f.sim.run();

  EXPECT_EQ(f.gateway.replicas_dropped(), 1u);
  EXPECT_EQ(f.gateway.cancellations_issued(), 0u);
  EXPECT_EQ(f.platform.total_counters().submits, 1u);
  ASSERT_EQ(f.gateway.records().size(), 1u);
  EXPECT_EQ(f.gateway.records()[0].replicas_delivered, 1);
}

TEST(GatewayMiddlewareDrop, PendingReplicaIsCancelledNotDropped) {
  // Both clusters are occupied, so neither replica starts at delivery;
  // when the origin replica eventually wins, the sibling is a *pending*
  // scheduler job and must be cancelled via qdel — the drop counter stays
  // at zero. (Drops happen before delivery; cancels after.)
  Fixture f(2, {1.0, 1.0});
  f.gateway.submit(make_grid_job(1, 0, {0}, 99, 50.0));
  f.gateway.submit(make_grid_job(2, 1, {1}, 99, 60.0));
  f.gateway.submit(make_grid_job(3, 0, {0, 1}, 7, 5.0));
  f.sim.run();

  EXPECT_EQ(f.gateway.replicas_dropped(), 0u);
  EXPECT_EQ(f.gateway.cancellations_issued(), 1u);
  EXPECT_EQ(f.platform.total_counters().submits, 4u);  // all delivered
  EXPECT_EQ(f.gateway.records().size(), 3u);
}

TEST(GatewayMiddlewareDrop, LateRemoteReplicaRejectedByUserLimit) {
  // Per-user cap of one pending request. Cluster 1 is busy for 1000 s and
  // user 7 already queued a job there, so when user 7's redundant job's
  // remote replica is finally delivered (t=3, after two earlier station
  // operations), the cap rejects it at the scheduler — counted as a
  // rejection, not a drop (its job had not started anywhere).
  Fixture f(2, {1.0, 1.0});
  for (std::size_t i = 0; i < 2; ++i) {
    f.platform.scheduler(i).set_per_user_pending_limit(1);
  }
  f.gateway.submit(make_grid_job(1, 0, {0}, 99, 1000.0));
  f.gateway.submit(make_grid_job(2, 1, {1}, 99, 1000.0));
  f.gateway.submit(make_grid_job(3, 1, {1}, 7, 5.0));
  f.gateway.submit(make_grid_job(4, 0, {0, 1}, 7, 5.0));
  f.sim.run();

  EXPECT_EQ(f.gateway.replicas_rejected(), 1u);
  EXPECT_EQ(f.gateway.replicas_dropped(), 0u);
  EXPECT_EQ(f.gateway.records().size(), 4u);  // every job still ran once
  for (const auto& rec : f.gateway.records()) {
    if (rec.grid_id == 4) {
      EXPECT_EQ(rec.replicas, 2);
      EXPECT_EQ(rec.replicas_delivered, 1);  // trimmed to the origin one
      EXPECT_EQ(rec.winner_cluster, 0u);
    }
  }
}

TEST(GatewayMiddlewareDrop, DirectDeliveryNeverDrops) {
  // Without middleware every qsub has already been issued when the first
  // grant lands, so losers are declined or cancelled, never dropped.
  des::Simulation sim;
  Platform platform(sim, std::vector<int>(2, 8), sched::Algorithm::kEasy);
  Gateway gateway(platform);
  GridJob job = make_grid_job(1, 0, {0, 1}, 7, 5.0);
  gateway.submit(job);
  sim.run();
  EXPECT_EQ(gateway.replicas_dropped(), 0u);
  EXPECT_EQ(platform.total_counters().submits, 2u);
  ASSERT_EQ(gateway.records().size(), 1u);
  EXPECT_EQ(gateway.records()[0].replicas_delivered, 2);
}

}  // namespace
}  // namespace rrsim::grid

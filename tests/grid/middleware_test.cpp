#include "rrsim/grid/middleware.h"

#include <gtest/gtest.h>

#include <vector>

#include "rrsim/grid/gateway.h"
#include "rrsim/grid/platform.h"
#include "rrsim/util/rng.h"

namespace rrsim::grid {
namespace {

TEST(MiddlewareStation, RejectsBadConstruction) {
  des::Simulation sim;
  EXPECT_THROW(MiddlewareStation(sim, 0.0), std::invalid_argument);
  EXPECT_THROW(MiddlewareStation(sim, -1.0), std::invalid_argument);
}

TEST(MiddlewareStation, ServesAtConfiguredRate) {
  des::Simulation sim;
  MiddlewareStation station(sim, 2.0);  // 0.5 s per operation
  std::vector<double> completion_times;
  for (int i = 0; i < 4; ++i) {
    station.enqueue([&completion_times, &sim] {
      completion_times.push_back(sim.now());
    });
  }
  EXPECT_EQ(station.backlog(), 4u);
  sim.run();
  ASSERT_EQ(completion_times.size(), 4u);
  EXPECT_DOUBLE_EQ(completion_times[0], 0.5);
  EXPECT_DOUBLE_EQ(completion_times[1], 1.0);
  EXPECT_DOUBLE_EQ(completion_times[2], 1.5);
  EXPECT_DOUBLE_EQ(completion_times[3], 2.0);
  EXPECT_EQ(station.processed(), 4u);
  EXPECT_EQ(station.backlog(), 0u);
}

TEST(MiddlewareStation, TracksSojournAndBacklog) {
  des::Simulation sim;
  MiddlewareStation station(sim, 1.0);
  for (int i = 0; i < 3; ++i) station.enqueue([] {});
  EXPECT_EQ(station.max_backlog(), 3u);
  sim.run();
  // Sojourns: 1, 2, 3 seconds -> mean 2.
  EXPECT_DOUBLE_EQ(station.mean_sojourn(), 2.0);
}

TEST(MiddlewareStation, IdleStationServesPromptly) {
  des::Simulation sim;
  MiddlewareStation station(sim, 4.0);
  double done = -1.0;
  station.enqueue([&] { done = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 0.25);
  // A later lone operation also takes exactly one service time.
  sim.schedule_at(10.0, [&] {
    station.enqueue([&] { done = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 10.25);
}

TEST(MiddlewareStation, BacklogDivergesWhenOverloaded) {
  des::Simulation sim;
  MiddlewareStation station(sim, 1.0);
  // Offer 2 ops/s against 1 op/s of service for 100 s.
  for (int i = 0; i < 200; ++i) {
    sim.schedule_at(i * 0.5, [&station] { station.enqueue([] {}); });
  }
  sim.run_until(100.0);
  EXPECT_GT(station.backlog(), 80u);  // ~100 in queue
}

// --- Gateway integration -------------------------------------------------

struct Fixture {
  des::Simulation sim;
  Platform platform;
  Gateway gateway;
  std::vector<std::unique_ptr<MiddlewareStation>> stations;

  Fixture(std::size_t n, double rate)
      : platform(sim, std::vector<int>(n, 8), sched::Algorithm::kEasy),
        gateway(platform) {
    std::vector<MiddlewareStation*> raw;
    for (std::size_t i = 0; i < n; ++i) {
      stations.push_back(std::make_unique<MiddlewareStation>(sim, rate));
      raw.push_back(stations.back().get());
    }
    gateway.set_middleware(std::move(raw));
  }
};

GridJob make_grid_job(GridJobId id, std::size_t origin,
                      std::vector<std::size_t> targets, double runtime) {
  GridJob job;
  job.id = id;
  job.origin = origin;
  job.targets = std::move(targets);
  job.redundant = job.targets.size() > 1;
  job.spec.nodes = 8;
  job.spec.runtime = runtime;
  job.spec.requested_time = runtime;
  return job;
}

TEST(GatewayMiddleware, SubmissionDelayedByService) {
  Fixture f(1, 0.5);  // 2 s per middleware operation
  f.gateway.submit(make_grid_job(1, 0, {0}, 10.0));
  f.sim.run();
  ASSERT_EQ(f.gateway.records().size(), 1u);
  // Submitted through middleware at t=2, ran 10 s.
  EXPECT_DOUBLE_EQ(f.gateway.records()[0].start_time, 2.0);
  EXPECT_DOUBLE_EQ(f.gateway.records()[0].finish_time, 12.0);
}

TEST(GatewayMiddleware, LateReplicaDroppedAfterSiblingStarts) {
  Fixture f(2, 1.0);  // 1 s per operation
  // Both replicas enqueue at t=0; cluster 0's arrives at t=1 and starts;
  // cluster 1's arrives at t=1 too (separate stations) — one of them is
  // granted first and the other is declined or dropped.
  f.gateway.submit(make_grid_job(1, 0, {0, 1}, 5.0));
  f.sim.run();
  EXPECT_EQ(f.gateway.records().size(), 1u);
  const auto total = f.platform.total_counters();
  EXPECT_EQ(total.finishes, 1u);
  EXPECT_EQ(total.starts, 1u);
}

TEST(GatewayMiddleware, ValidatesConfiguration) {
  des::Simulation sim;
  Platform platform(sim, std::vector<int>(2, 8), sched::Algorithm::kEasy);
  Gateway gateway(platform);
  MiddlewareStation station(sim, 1.0);
  EXPECT_THROW(gateway.set_middleware({&station}), std::invalid_argument);
  EXPECT_THROW(gateway.set_middleware({&station, nullptr}),
               std::invalid_argument);
  Gateway predicting(platform, /*record_predictions=*/true);
  MiddlewareStation s2(sim, 1.0);
  EXPECT_THROW(predicting.set_middleware({&station, &s2}),
               std::invalid_argument);
}

TEST(GatewayMiddleware, ConservationUnderSlowMiddleware) {
  Fixture f(3, 0.8);
  util::Rng rng(5);
  GridJobId id = 1;
  double t = 0.0;
  std::vector<GridJob> jobs;
  for (int i = 0; i < 80; ++i) {
    t += rng.uniform(0.0, 6.0);
    const std::size_t origin = rng.below(3);
    GridJob job = make_grid_job(id++, origin, {0, 1, 2}, rng.uniform(1.0, 40.0));
    job.origin = origin;
    // make sure origin is in targets and first
    job.targets = {origin};
    for (std::size_t c = 0; c < 3; ++c) {
      if (c != origin) job.targets.push_back(c);
    }
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
  EXPECT_EQ(f.gateway.records().size(), 80u);
  const auto total = f.platform.total_counters();
  EXPECT_EQ(total.finishes, 80u);
  // Every delivered replica either ran or was cancelled/declined once.
  EXPECT_EQ(f.gateway.cancellations_issued() + 80u, total.submits);
}

}  // namespace
}  // namespace rrsim::grid

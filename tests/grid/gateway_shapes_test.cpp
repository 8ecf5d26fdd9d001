// Shaped (moldable) submissions through the gateway — the paper's
// redundancy option (iv): several differently-sized requests for the
// same job, possibly in the same batch queue; first to start wins.
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

  explicit Fixture(std::size_t n, int nodes = 8)
      : platform(sim, std::vector<int>(n, nodes), sched::Algorithm::kEasy),
        gateway(platform) {}
};

workload::JobSpec spec_of(int nodes, double runtime, double requested = -1) {
  workload::JobSpec s;
  s.nodes = nodes;
  s.runtime = runtime;
  s.requested_time = requested < 0 ? runtime : requested;
  return s;
}

GridJob shaped_job(GridJobId id, std::size_t origin,
                   std::vector<std::size_t> targets,
                   std::vector<workload::JobSpec> shapes) {
  GridJob job;
  job.id = id;
  job.origin = origin;
  job.targets = std::move(targets);
  job.replica_specs = std::move(shapes);
  job.redundant = job.targets.size() > 1;
  job.spec = job.replica_specs.front();
  return job;
}

TEST(GatewayShapes, ValidatesSpecCount) {
  Fixture f(2);
  GridJob bad = shaped_job(1, 0, {0, 1}, {spec_of(4, 10.0)});
  EXPECT_THROW(f.gateway.submit(bad), std::invalid_argument);
}

TEST(GatewayShapes, DuplicateTargetsAllowedOnlyWithShapes) {
  Fixture f(1);
  GridJob uniform;
  uniform.id = 1;
  uniform.origin = 0;
  uniform.targets = {0, 0};
  uniform.spec = spec_of(4, 10.0);
  EXPECT_THROW(f.gateway.submit(uniform), std::invalid_argument);

  GridJob shaped = shaped_job(2, 0, {0, 0},
                              {spec_of(8, 10.0), spec_of(4, 17.0)});
  EXPECT_NO_THROW(f.gateway.submit(shaped));
  f.sim.run();
  EXPECT_EQ(f.gateway.records().size(), 1u);
}

TEST(GatewayShapes, NarrowShapeWinsWhenClusterIsHalfBusy) {
  Fixture f(1);
  // Occupy 4 of 8 nodes for a long time.
  GridJob wall;
  wall.id = 1;
  wall.origin = 0;
  wall.targets = {0};
  wall.spec = spec_of(4, 1000.0);
  f.gateway.submit(wall);
  // Moldable job: 8-node x 10 s or 4-node x 19 s. Only the narrow shape
  // fits now; it must win immediately.
  f.gateway.submit(shaped_job(2, 0, {0, 0},
                              {spec_of(8, 10.0), spec_of(4, 19.0)}));
  f.sim.run_until(0.0);
  bool found = false;
  f.sim.run();
  for (const auto& rec : f.gateway.records()) {
    if (rec.grid_id == 2) {
      found = true;
      EXPECT_EQ(rec.nodes, 4);
      EXPECT_DOUBLE_EQ(rec.start_time, 0.0);
      EXPECT_DOUBLE_EQ(rec.actual_time, 19.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(GatewayShapes, WideShapeWinsOnIdleCluster) {
  Fixture f(1);
  f.gateway.submit(shaped_job(1, 0, {0, 0},
                              {spec_of(8, 10.0), spec_of(4, 19.0)}));
  f.sim.run();
  ASSERT_EQ(f.gateway.records().size(), 1u);
  // Both shapes fit at t=0; the first-listed (wide) shape is granted
  // first and wins; the narrow sibling is dropped or declined.
  EXPECT_EQ(f.gateway.records()[0].nodes, 8);
  EXPECT_DOUBLE_EQ(f.gateway.records()[0].finish_time, 10.0);
}

TEST(GatewayShapes, ShapesAcrossClusters) {
  Fixture f(2);
  // Cluster 0 fully busy; cluster 1 has only 2 free nodes... simulate by
  // filling 6 of 8.
  GridJob wall0;
  wall0.id = 1;
  wall0.origin = 0;
  wall0.targets = {0};
  wall0.spec = spec_of(8, 500.0);
  f.gateway.submit(wall0);
  GridJob wall1;
  wall1.id = 2;
  wall1.origin = 1;
  wall1.targets = {1};
  wall1.spec = spec_of(6, 500.0);
  f.gateway.submit(wall1);
  // Wide shape to cluster 0, narrow shape to cluster 1.
  f.gateway.submit(shaped_job(3, 0, {0, 1},
                              {spec_of(8, 20.0), spec_of(2, 70.0)}));
  f.sim.run();
  for (const auto& rec : f.gateway.records()) {
    if (rec.grid_id == 3) {
      EXPECT_EQ(rec.winner_cluster, 1u);  // narrow fits beside wall1
      EXPECT_EQ(rec.nodes, 2);
      EXPECT_DOUBLE_EQ(rec.start_time, 0.0);
    }
  }
}

TEST(GatewayShapes, ConservationWithManyMoldableJobs) {
  Fixture f(2, 16);
  util::Rng rng(9);
  GridJobId id = 1;
  double t = 0.0;
  std::vector<GridJob> jobs;
  for (int i = 0; i < 100; ++i) {
    t += rng.uniform(0.0, 8.0);
    const int base_nodes = static_cast<int>(rng.between(2, 16));
    const double runtime = rng.uniform(5.0, 60.0);
    const int narrow = std::max(1, base_nodes / 2);
    GridJob job = shaped_job(
        id++, rng.below(2), {0, 0, 1},
        {spec_of(base_nodes, runtime),
         spec_of(narrow, runtime * 1.8),
         spec_of(base_nodes, runtime)});
    job.origin = job.targets[0];
    job.spec.submit_time = t;
    jobs.push_back(job);
  }
  for (const GridJob& job : jobs) {
    f.sim.schedule_at(job.spec.submit_time,
                      [&g = f.gateway, &job] { g.submit(job); },
                      des::Priority::kArrival);
  }
  f.sim.run();
  EXPECT_EQ(f.gateway.records().size(), 100u);  // each ran exactly once
  EXPECT_EQ(f.platform.total_counters().finishes, 100u);
}

}  // namespace
}  // namespace rrsim::grid

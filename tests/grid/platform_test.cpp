#include "rrsim/grid/platform.h"

#include <gtest/gtest.h>

#include <vector>

namespace rrsim::grid {
namespace {

TEST(Platform, BuildsSchedulersOfRequestedAlgorithm) {
  des::Simulation sim;
  Platform platform(sim, std::vector<int>(3, 64), sched::Algorithm::kCbf);
  EXPECT_EQ(platform.size(), 3u);
  EXPECT_EQ(platform.algorithm(), sched::Algorithm::kCbf);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(platform.scheduler(i).name(), "cbf");
    EXPECT_EQ(platform.scheduler(i).total_nodes(), 64);
  }
}

TEST(Platform, HeterogeneousSizes) {
  des::Simulation sim;
  Platform platform(sim, {16, 128, 256}, sched::Algorithm::kEasy);
  EXPECT_EQ(platform.cluster_sizes(), (std::vector<int>{16, 128, 256}));
  EXPECT_EQ(platform.scheduler(2).total_nodes(), 256);
}

TEST(Platform, RejectsEmpty) {
  des::Simulation sim;
  EXPECT_THROW(Platform(sim, {}, sched::Algorithm::kEasy),
               std::invalid_argument);
}

TEST(Platform, TotalCountersSumAcrossClusters) {
  des::Simulation sim;
  Platform platform(sim, std::vector<int>(2, 8), sched::Algorithm::kFcfs);
  sched::Job job;
  job.id = 1;
  job.nodes = 4;
  job.requested_time = 10.0;
  job.actual_time = 10.0;
  platform.scheduler(0).submit(job);
  job.id = 2;
  platform.scheduler(1).submit(job);
  job.id = 3;
  platform.scheduler(1).submit(job);
  sim.run();
  const sched::OpCounters total = platform.total_counters();
  EXPECT_EQ(total.submits, 3u);
  EXPECT_EQ(total.starts, 3u);
  EXPECT_EQ(total.finishes, 3u);
}

}  // namespace
}  // namespace rrsim::grid

#include "rrsim/metrics/queue_tracker.h"

#include <gtest/gtest.h>

namespace rrsim::metrics {
namespace {

TEST(QueueTracker, RejectsBadInterval) {
  des::Simulation sim;
  EXPECT_THROW(QueueTracker(sim, {}, 0.0, 100.0), std::invalid_argument);
  EXPECT_THROW(QueueTracker(sim, {}, -5.0, 100.0), std::invalid_argument);
  EXPECT_THROW(QueueTracker(sim, {}, 1.0, -1.0), std::invalid_argument);
}

TEST(QueueTracker, SamplesAtInterval) {
  des::Simulation sim;
  std::size_t value = 0;
  QueueTracker tracker(sim, {[&value] { return value; }}, 10.0, 50.0);
  sim.schedule_at(15.0, [&value] { value = 3; });
  sim.schedule_at(35.0, [&value] { value = 7; });
  sim.run();
  const auto& series = tracker.series(0);
  // Samples at 10, 20, 30, 40, 50.
  ASSERT_EQ(series.size(), 5u);
  EXPECT_EQ(series[0], (std::pair<double, std::size_t>{10.0, 0u}));
  EXPECT_EQ(series[1], (std::pair<double, std::size_t>{20.0, 3u}));
  EXPECT_EQ(series[4], (std::pair<double, std::size_t>{50.0, 7u}));
  EXPECT_EQ(tracker.max_length(0), 7u);
}

TEST(QueueTracker, StopsAtHorizon) {
  des::Simulation sim;
  QueueTracker tracker(sim, {[] { return std::size_t{1}; }}, 10.0, 25.0);
  sim.schedule_at(100.0, [] {});  // simulation runs past the horizon
  sim.run();
  EXPECT_EQ(tracker.series(0).size(), 2u);  // samples at 10 and 20
}

TEST(QueueTracker, MaxLengthPerProbe) {
  des::Simulation sim;
  QueueTracker tracker(sim,
                       {[] { return std::size_t{4}; },
                        [] { return std::size_t{8}; }},
                       10.0, 20.0);
  sim.run();
  EXPECT_EQ(tracker.max_length(0), 4u);
  EXPECT_EQ(tracker.max_length(1), 8u);
}

TEST(QueueTracker, GrowthPerHourLinearQueue) {
  des::Simulation sim;
  double now_len = 0.0;
  // Queue grows by exactly 2 jobs per minute = 120 per hour.
  QueueTracker tracker(
      sim, {[&now_len] { return static_cast<std::size_t>(now_len); }}, 60.0,
      3600.0);
  for (int minute = 1; minute <= 60; ++minute) {
    sim.schedule_at(minute * 60.0 - 1.0,
                    [&now_len] { now_len += 2.0; });
  }
  sim.run();
  EXPECT_NEAR(tracker.growth_per_hour(0), 120.0, 5.0);
}

TEST(QueueTracker, GrowthOfFlatQueueIsZero) {
  des::Simulation sim;
  QueueTracker tracker(sim, {[] { return std::size_t{42}; }}, 10.0, 1000.0);
  sim.run();
  EXPECT_NEAR(tracker.growth_per_hour(0), 0.0, 1e-9);
}

TEST(QueueTracker, HorizonShorterThanIntervalYieldsNoSamples) {
  des::Simulation sim;
  QueueTracker tracker(sim, {[] { return std::size_t{1}; }}, 100.0, 50.0);
  sim.run();
  EXPECT_TRUE(tracker.series(0).empty());
  EXPECT_EQ(tracker.max_length(0), 0u);
  EXPECT_EQ(tracker.growth_per_hour(0), 0.0);
}

}  // namespace
}  // namespace rrsim::metrics

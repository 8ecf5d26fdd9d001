#include "rrsim/workload/calibrate.h"

#include <gtest/gtest.h>

#include <limits>

namespace rrsim::workload {
namespace {

TEST(Calibrate, RejectsBadUtilization) {
  util::Rng rng(1);
  const LublinModel m(LublinParams{}, 128);
  EXPECT_THROW(interarrival_for_utilization(m, 0.0, rng),
               std::invalid_argument);
  EXPECT_THROW(interarrival_for_utilization(m, -0.5, rng),
               std::invalid_argument);
  // A NaN target would give a NaN inter-arrival time that every later
  // "> 0" check lets through; infinities are no load target either.
  for (const double target : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(interarrival_for_utilization(m, target, rng),
                 std::invalid_argument)
        << target;
  }
}

TEST(Calibrate, HigherUtilizationMeansFasterArrivals) {
  util::Rng rng(2);
  const LublinModel m(LublinParams{}, 128);
  const double iat_light = interarrival_for_utilization(m, 0.5, rng, 50000);
  const double iat_heavy = interarrival_for_utilization(m, 1.5, rng, 50000);
  EXPECT_GT(iat_light, iat_heavy);
  EXPECT_NEAR(iat_light / iat_heavy, 3.0, 0.6);  // inversely proportional
}

TEST(Calibrate, ScalesWithMeanWork) {
  // iat = E[work] / (util * nodes): verify the identity directly. (Note
  // bigger clusters draw bigger jobs under the Lublin model, so iat does
  // not simply shrink with cluster size.)
  util::Rng rng_a(3);
  util::Rng rng_b(3);
  const LublinModel m(LublinParams{}, 64);
  const double work = m.estimate_mean_work(rng_a, 20000);
  const double iat = interarrival_for_utilization(m, 0.9, rng_b, 20000);
  EXPECT_NEAR(iat, work / (0.9 * 64.0), 1e-9);
}

TEST(Calibrate, AchievedOfferedLoadNearTarget) {
  util::Rng rng(4);
  const double target = 0.9;
  const LublinParams params =
      calibrate_params(LublinParams{}, 128, target, rng, 100000);
  const LublinModel m(params, 128);
  // Generate a long stream and measure its empirical offered load.
  util::Rng rng2(5);
  const double horizon = 200.0 * 3600.0;
  const JobStream stream = m.generate_stream(rng2, horizon);
  const double load = offered_load(stream, 128, horizon);
  EXPECT_NEAR(load, target, 0.25 * target);  // heavy tails => loose bound
}

TEST(OfferedLoad, EmptyStreamIsZero) {
  EXPECT_EQ(offered_load({}, 128, 100.0), 0.0);
}

TEST(OfferedLoad, HandComputedValue) {
  JobStream s(2);
  s[0].nodes = 4;
  s[0].runtime = 100.0;
  s[1].nodes = 2;
  s[1].runtime = 50.0;
  // work = 400 + 100 = 500 node-seconds over 10 nodes * 50 s = 500.
  EXPECT_DOUBLE_EQ(offered_load(s, 10, 50.0), 1.0);
}

TEST(OfferedLoad, RejectsBadNodes) {
  EXPECT_THROW(offered_load({}, 0, 100.0), std::invalid_argument);
}

}  // namespace
}  // namespace rrsim::workload

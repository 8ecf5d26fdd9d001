#include "rrsim/util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rrsim/util/rng.h"

namespace rrsim::util {
namespace {

TEST(OnlineStats, EmptyIsAllZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.cv_percent(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 4.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 4.0);
  EXPECT_EQ(s.max(), 4.0);
}

TEST(OnlineStats, KnownSample) {
  // Sample {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, sample variance 32/7.
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.cv_percent(), std::sqrt(32.0 / 7.0) / 5.0 * 100.0, 1e-9);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MatchesNaiveTwoPassOnRandomData) {
  Rng rng(1);
  std::vector<double> xs;
  OnlineStats s;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(-100.0, 100.0);
    xs.push_back(x);
    s.add(x);
  }
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double m2 = 0.0;
  for (const double x : xs) m2 += (x - mean) * (x - mean);
  const double var = m2 / static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-6);
}

TEST(Summarize, EmptySpan) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summarize, BasicSample) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_NEAR(s.stddev, 1.0, 1e-12);
  EXPECT_NEAR(s.cv_percent, 50.0, 1e-9);
}

TEST(Quantile, InterpolatesLinearly) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0 / 3.0), 20.0);
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> xs{40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
}

TEST(Quantile, RejectsOutOfRangeQ) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(quantile(xs, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(xs, 1.1), std::invalid_argument);
}

TEST(Quantile, EmptyReturnsZero) { EXPECT_EQ(quantile({}, 0.5), 0.0); }

}  // namespace
}  // namespace rrsim::util

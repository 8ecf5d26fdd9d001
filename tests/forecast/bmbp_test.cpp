#include "rrsim/forecast/bmbp.h"

#include <gtest/gtest.h>

#include <cmath>

#include "rrsim/util/distributions.h"
#include "rrsim/util/rng.h"

namespace rrsim::forecast {
namespace {

TEST(BinomialCdf, KnownValues) {
  // X ~ Binomial(5, 0.5): P[X<=2] = (1+5+10)/32 = 0.5.
  EXPECT_NEAR(binomial_cdf(2, 5, 0.5), 0.5, 1e-12);
  // P[X<=0] = 0.5^5.
  EXPECT_NEAR(binomial_cdf(0, 5, 0.5), 1.0 / 32.0, 1e-12);
  // Full support.
  EXPECT_DOUBLE_EQ(binomial_cdf(5, 5, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(binomial_cdf(9, 5, 0.5), 1.0);
}

TEST(BinomialCdf, EdgeProbabilities) {
  EXPECT_DOUBLE_EQ(binomial_cdf(0, 10, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_cdf(3, 10, 1.0), 0.0);
  EXPECT_THROW(binomial_cdf(1, 2, -0.1), std::invalid_argument);
  EXPECT_THROW(binomial_cdf(1, 2, 1.1), std::invalid_argument);
}

TEST(BinomialCdf, MonotoneInK) {
  double prev = 0.0;
  for (std::size_t k = 0; k <= 20; ++k) {
    const double v = binomial_cdf(k, 20, 0.3);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(BinomialCdf, LargeNStable) {
  // Median of Binomial(10000, 0.5): CDF at 4999 ~ 0.5.
  EXPECT_NEAR(binomial_cdf(4999, 10000, 0.5), 0.5, 0.01);
}

TEST(OrderStatistic, TooFewSamplesGivesNoBound) {
  // With q = c = 0.95, even the max of n samples only reaches confidence
  // 1 - 0.95^n; need n >= 59 for 95%.
  EXPECT_FALSE(bmbp_order_statistic(10, 0.95, 0.95).has_value());
  EXPECT_FALSE(bmbp_order_statistic(58, 0.95, 0.95).has_value());
  EXPECT_TRUE(bmbp_order_statistic(59, 0.95, 0.95).has_value());
  EXPECT_EQ(*bmbp_order_statistic(59, 0.95, 0.95), 59u);
}

TEST(OrderStatistic, MatchesDirectScan) {
  // Cross-check the binary search against a linear scan.
  for (const std::size_t n : {60u, 100u, 300u}) {
    const auto k = bmbp_order_statistic(n, 0.9, 0.95);
    ASSERT_TRUE(k.has_value());
    // k is feasible...
    EXPECT_GE(binomial_cdf(*k - 1, n, 0.9), 0.95);
    // ...and minimal.
    if (*k > 1) {
      EXPECT_LT(binomial_cdf(*k - 2, n, 0.9), 0.95);
    }
  }
}

TEST(OrderStatistic, Validation) {
  EXPECT_THROW(bmbp_order_statistic(10, 0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(bmbp_order_statistic(10, 1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(bmbp_order_statistic(10, 0.5, 0.0), std::invalid_argument);
  EXPECT_FALSE(bmbp_order_statistic(0, 0.5, 0.5).has_value());
}

TEST(BmbpPredictor, Validation) {
  EXPECT_THROW(BmbpPredictor(1.5, 0.95), std::invalid_argument);
  EXPECT_THROW(BmbpPredictor(0.95, 0.95, 0), std::invalid_argument);
  BmbpPredictor p;
  EXPECT_THROW(p.observe(-1.0), std::invalid_argument);
}

TEST(BmbpPredictor, NoBoundUntilEnoughHistory) {
  BmbpPredictor p(0.95, 0.95);
  for (int i = 0; i < 58; ++i) p.observe(static_cast<double>(i));
  EXPECT_FALSE(p.upper_bound().has_value());
  p.observe(58.0);
  EXPECT_TRUE(p.upper_bound().has_value());
}

TEST(BmbpPredictor, WindowSlides) {
  BmbpPredictor p(0.5, 0.5, 4);
  for (const double w : {100.0, 100.0, 100.0, 100.0}) p.observe(w);
  for (const double w : {1.0, 1.0, 1.0, 1.0}) p.observe(w);
  // Old observations evicted: the bound reflects only the small waits.
  const auto bound = p.upper_bound();
  ASSERT_TRUE(bound.has_value());
  EXPECT_DOUBLE_EQ(*bound, 1.0);
  EXPECT_EQ(p.history_size(), 4u);
}

TEST(BmbpPredictor, CoverageOnIidData_Property) {
  // On i.i.d. exponential waits, the 0.95-quantile bound at 95%
  // confidence must cover at least ~95% of future observations.
  util::Rng rng(11);
  BmbpPredictor p(0.95, 0.95, 256);
  for (int i = 0; i < 256; ++i) {
    p.observe(util::sample_exponential(rng, 100.0));
  }
  const auto bound = p.upper_bound();
  ASSERT_TRUE(bound.has_value());
  int covered = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (util::sample_exponential(rng, 100.0) <= *bound) ++covered;
  }
  EXPECT_GT(static_cast<double>(covered) / trials, 0.93);
}

TEST(BmbpPredictor, BoundTracksTrueQuantile) {
  // The bound should not be wildly conservative on clean data: for
  // exponential(100), the 0.95 quantile is ~300.
  util::Rng rng(12);
  BmbpPredictor p(0.95, 0.95, 512);
  for (int i = 0; i < 512; ++i) {
    p.observe(util::sample_exponential(rng, 100.0));
  }
  const auto bound = p.upper_bound();
  ASSERT_TRUE(bound.has_value());
  const double true_q = -100.0 * std::log(0.05);
  EXPECT_GT(*bound, true_q * 0.8);
  EXPECT_LT(*bound, true_q * 2.0);
}

}  // namespace
}  // namespace rrsim::forecast

#include "rrsim/forecast/bmbp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

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
  EXPECT_THROW(p.observe(std::nan("")), std::invalid_argument);
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

// The sliding-window predictor as it was before it memoized the order
// statistic and selected with nth_element: it re-derives the index and
// sorts a copy of the window on every query. Kept verbatim as the oracle
// for the selection below.
class SortingBmbp {
 public:
  SortingBmbp(double quantile, double confidence, std::size_t max_history)
      : quantile_(quantile),
        confidence_(confidence),
        max_history_(max_history) {}

  void observe(double wait) {
    window_.push_back(wait);
    if (window_.size() > max_history_) window_.pop_front();
  }

  std::optional<double> upper_bound() const {
    const auto k =
        bmbp_order_statistic(window_.size(), quantile_, confidence_);
    if (!k) return std::nullopt;
    std::vector<double> sorted(window_.begin(), window_.end());
    std::sort(sorted.begin(), sorted.end());
    return sorted[*k - 1];
  }

 private:
  double quantile_;
  double confidence_;
  std::size_t max_history_;
  std::deque<double> window_;
};

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(BmbpPredictor, SelectionMatchesTheSortingPredictor) {
  // Seeded windows, each observed from empty through three times its
  // capacity, so every query size while the window fills and the full
  // window after each eviction are compared. Half the waits come from a
  // handful of integer values, so windows are full of ties.
  struct Shape {
    double q;
    double c;
    std::size_t history;
  };
  const Shape shapes[] = {{0.95, 0.95, 512}, {0.5, 0.5, 4},
                          {0.9, 0.99, 97},   {0.25, 0.75, 1},
                          {0.75, 0.9, 200},  {0.05, 0.6, 33}};
  for (const std::uint64_t seed : {1u, 2u, 7919u}) {
    for (const Shape& shape : shapes) {
      SCOPED_TRACE(testing::Message()
                   << "seed=" << seed << " q=" << shape.q
                   << " c=" << shape.c << " history=" << shape.history);
      util::Rng rng(seed);
      BmbpPredictor subject(shape.q, shape.c, shape.history);
      SortingBmbp oracle(shape.q, shape.c, shape.history);
      std::size_t bounds = 0;
      for (std::size_t i = 0; i < 3 * shape.history + 8; ++i) {
        const double wait = rng.chance(0.5)
                                ? static_cast<double>(rng.below(6)) * 60.0
                                : util::sample_exponential(rng, 300.0);
        subject.observe(wait);
        oracle.observe(wait);
        const auto got = subject.upper_bound();
        const auto want = oracle.upper_bound();
        ASSERT_EQ(got.has_value(), want.has_value()) << "observation " << i;
        if (!want) continue;
        ++bounds;
        ASSERT_EQ(bits_of(*got), bits_of(*want)) << "observation " << i;
        // A repeated query reads the memoized index.
        ASSERT_EQ(bits_of(*subject.upper_bound()), bits_of(*want));
      }
      EXPECT_GT(bounds, 0u);
    }
  }
}

}  // namespace
}  // namespace rrsim::forecast

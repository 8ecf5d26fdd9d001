#include "rrsim/workload/lublin.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

namespace rrsim::workload {
namespace {

bool is_power_of_two(int n) { return n > 0 && (n & (n - 1)) == 0; }

TEST(LublinParams, DefaultMeanInterarrivalMatchesPaper) {
  const LublinParams p;
  // alpha * beta = 10.23 * 0.4871 ~ 4.98 s ("roughly 5 seconds").
  EXPECT_NEAR(p.mean_interarrival(), 5.0, 0.1);
}

TEST(LublinParams, WithMeanInterarrivalRescales) {
  const LublinParams p = LublinParams{}.with_mean_interarrival(20.0);
  EXPECT_NEAR(p.mean_interarrival(), 20.0, 1e-12);
  EXPECT_DOUBLE_EQ(p.arrival_alpha, 10.23);  // burstiness preserved
}

TEST(LublinParams, RejectsNonPositiveMean) {
  EXPECT_THROW(LublinParams{}.with_mean_interarrival(0.0),
               std::invalid_argument);
  // NaN passes a plain "<= 0" check, and a NaN arrival process steps
  // generation forward one clamped microsecond at a time.
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(LublinParams{}.with_mean_interarrival(v),
                 std::invalid_argument)
        << v;
  }
}

TEST(LublinModel, RejectsBadConstruction) {
  EXPECT_THROW(LublinModel(LublinParams{}, 0), std::invalid_argument);
  LublinParams bad;
  bad.serial_prob = 1.5;
  EXPECT_THROW(LublinModel(bad, 128), std::invalid_argument);
  LublinParams bad2;
  bad2.min_runtime = 0.0;
  EXPECT_THROW(LublinModel(bad2, 128), std::invalid_argument);
  LublinParams bad3;
  bad3.rt_log_base = 1.0;
  EXPECT_THROW(LublinModel(bad3, 128), std::invalid_argument);
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    LublinParams alpha;
    alpha.arrival_alpha = v;
    EXPECT_THROW(LublinModel(alpha, 128), std::invalid_argument) << v;
    LublinParams beta;
    beta.arrival_beta = v;
    EXPECT_THROW(LublinModel(beta, 128), std::invalid_argument) << v;
  }
  LublinParams bad4;
  bad4.arrival_beta = -1.0;
  EXPECT_THROW(LublinModel(bad4, 128), std::invalid_argument);
}

TEST(LublinModel, InterarrivalMeanMatchesParams) {
  util::Rng rng(1);
  const LublinModel m(LublinParams{}, 128);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double gap = m.sample_interarrival(rng);
    ASSERT_GT(gap, 0.0);
    sum += gap;
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(LublinModel, NodesWithinClusterBounds) {
  util::Rng rng(2);
  const LublinModel m(LublinParams{}, 128);
  for (int i = 0; i < 50000; ++i) {
    const int nodes = m.sample_nodes(rng);
    ASSERT_GE(nodes, 1);
    ASSERT_LE(nodes, 128);
  }
}

TEST(LublinModel, SerialFractionMatchesModel) {
  util::Rng rng(3);
  const LublinModel m(LublinParams{}, 128);
  int serial = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (m.sample_nodes(rng) == 1) ++serial;
  }
  // serial_prob = 0.244 plus a small contribution from parallel draws
  // rounding down to 1.
  EXPECT_NEAR(static_cast<double>(serial) / n, 0.244, 0.03);
}

TEST(LublinModel, NodeCountsBiasedTowardPowersOfTwo) {
  util::Rng rng(4);
  const LublinModel m(LublinParams{}, 128);
  int pow2 = 0;
  int parallel = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const int nodes = m.sample_nodes(rng);
    if (nodes == 1) continue;
    ++parallel;
    if (is_power_of_two(nodes)) ++pow2;
  }
  // At least pow2_prob of parallel jobs land exactly on powers of two
  // (plus rounding coincidences from the non-snapped branch).
  EXPECT_GT(static_cast<double>(pow2) / parallel, 0.576);
}

TEST(LublinModel, SingleNodeClusterAlwaysSerial) {
  util::Rng rng(5);
  const LublinModel m(LublinParams{}, 1);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(m.sample_nodes(rng), 1);
}

TEST(LublinModel, SmallClusterKeepsStagesOrdered) {
  util::Rng rng(6);
  // log2(4) = 2 < umed_offset cases must not throw and stay in range.
  const LublinModel m(LublinParams{}, 4);
  for (int i = 0; i < 10000; ++i) {
    const int nodes = m.sample_nodes(rng);
    ASSERT_GE(nodes, 1);
    ASSERT_LE(nodes, 4);
  }
}

TEST(LublinModel, RuntimesClamped) {
  util::Rng rng(7);
  LublinParams p;
  p.min_runtime = 10.0;
  p.max_runtime = 1000.0;
  const LublinModel m(p, 128);
  for (int i = 0; i < 20000; ++i) {
    const double rt = m.sample_runtime(rng, 4);
    ASSERT_GE(rt, 10.0);
    ASSERT_LE(rt, 1000.0);
  }
}

TEST(LublinModel, WiderJobsRunLonger) {
  // The mixture probability p decreases with nodes, so the long-runtime
  // class dominates for wide jobs.
  util::Rng rng(8);
  const LublinModel m(LublinParams{}, 128);
  double narrow = 0.0;
  double wide = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) narrow += m.sample_runtime(rng, 1);
  for (int i = 0; i < n; ++i) wide += m.sample_runtime(rng, 128);
  EXPECT_GT(wide / n, 2.0 * narrow / n);
}

TEST(LublinModel, RuntimeDistributionIsBimodal) {
  // Base-2 defaults: short class ~2^4 s, long class ~2^9.4 s. Check both
  // modes are populated for mid-size jobs.
  util::Rng rng(9);
  const LublinModel m(LublinParams{}, 128);
  int shorts = 0;
  int longs = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double rt = m.sample_runtime(rng, 8);
    if (rt < 120.0) ++shorts;
    if (rt > 300.0) ++longs;
  }
  EXPECT_GT(shorts, n / 10);
  EXPECT_GT(longs, n / 10);
}

TEST(LublinModel, LogBaseEGivesHeavierRuntimes) {
  util::Rng rng_a(10);
  util::Rng rng_b(10);
  LublinParams pe;
  pe.rt_log_base = std::exp(1.0);
  const LublinModel m2(LublinParams{}, 128);
  const LublinModel me(pe, 128);
  double sum2 = 0.0;
  double sume = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum2 += m2.sample_runtime(rng_a, 8);
  for (int i = 0; i < n; ++i) sume += me.sample_runtime(rng_b, 8);
  EXPECT_GT(sume, 3.0 * sum2);
}

TEST(LublinModel, StreamIsTimeOrderedWithinHorizon) {
  util::Rng rng(11);
  const LublinModel m(LublinParams{}, 128);
  const JobStream stream = m.generate_stream(rng, 3600.0);
  ASSERT_FALSE(stream.empty());
  double prev = 0.0;
  for (const JobSpec& j : stream) {
    ASSERT_GT(j.submit_time, prev);
    ASSERT_LE(j.submit_time, 3600.0);
    ASSERT_GE(j.nodes, 1);
    ASSERT_GT(j.runtime, 0.0);
    ASSERT_EQ(j.requested_time, j.runtime);  // exact estimates by default
    prev = j.submit_time;
  }
}

TEST(LublinModel, StreamSizeTracksHorizon) {
  util::Rng rng(12);
  const LublinModel m(LublinParams{}, 128);
  const JobStream s1 = m.generate_stream(rng, 3600.0);
  // ~720 jobs expected at 5 s inter-arrival.
  EXPECT_NEAR(static_cast<double>(s1.size()), 720.0, 120.0);
}

TEST(LublinModel, EmptyHorizonGivesEmptyStream) {
  util::Rng rng(13);
  const LublinModel m(LublinParams{}, 128);
  EXPECT_TRUE(m.generate_stream(rng, 0.0).empty());
  EXPECT_THROW(m.generate_stream(rng, -1.0), std::invalid_argument);
}

TEST(LublinModel, MeanWorkEstimatePositiveAndStable) {
  util::Rng rng(14);
  const LublinModel m(LublinParams{}, 128);
  const double w1 = m.estimate_mean_work(rng, 40000);
  const double w2 = m.estimate_mean_work(rng, 40000);
  EXPECT_GT(w1, 0.0);
  EXPECT_NEAR(w1, w2, 0.35 * w1);  // heavy-tailed, but same ballpark
  EXPECT_THROW(m.estimate_mean_work(rng, 0), std::invalid_argument);
}

TEST(LublinModel, DeterministicGivenSeed) {
  const LublinModel m(LublinParams{}, 128);
  util::Rng a(77);
  util::Rng b(77);
  const JobStream s1 = m.generate_stream(a, 1800.0);
  const JobStream s2 = m.generate_stream(b, 1800.0);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    ASSERT_EQ(s1[i].submit_time, s2[i].submit_time);
    ASSERT_EQ(s1[i].nodes, s2[i].nodes);
    ASSERT_EQ(s1[i].runtime, s2[i].runtime);
  }
}

}  // namespace
}  // namespace rrsim::workload

#include "rrsim/util/rng.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace rrsim::util {
namespace {

TEST(Pcg32, SameSeedSameSequence) {
  Pcg32 a(123, 7);
  Pcg32 b(123, 7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next()) << "diverged at draw " << i;
  }
}

TEST(Pcg32, DifferentSeedsDiffer) {
  Pcg32 a(1, 7);
  Pcg32 b(2, 7);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Pcg32, DifferentStreamsDiffer) {
  Pcg32 a(42, 1);
  Pcg32 b(42, 2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(10);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 17.5);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 17.5);
  }
}

TEST(Rng, BelowIsUnbiasedAcrossSmallRange) {
  Rng rng(12);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.below(7)];
  }
  for (int k = 0; k < 7; ++k) {
    EXPECT_NEAR(counts[static_cast<std::size_t>(k)], n / 7, n / 7 * 0.1)
        << "bucket " << k;
  }
}

TEST(Rng, BetweenCoversInclusiveRange) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.between(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all six values observed
}

TEST(Rng, ChanceZeroAndOne) {
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(15);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(16);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsDeterministic) {
  Rng p1(17);
  Rng p2(17);
  Rng a = p1.fork(5);
  Rng b = p2.fork(5);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, FromFingerprintContinuesTheSequenceExactly) {
  Rng original(19);
  for (int i = 0; i < 37; ++i) original.next_u64();  // advance mid-stream
  Rng restored = Rng::from_fingerprint(original.fingerprint());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(restored.next_u64(), original.next_u64())
        << "diverged at draw " << i;
  }
  // And the restored generator's own fingerprint round-trips.
  EXPECT_EQ(restored.fingerprint(), original.fingerprint());
}

TEST(Rng, ChanceAdvancesStateIndependentlyOfProbability) {
  // workload::DrawSegmentKey relies on this: chance(p) consumes exactly
  // one next_u64 whatever p is, so the generator's end state after a run
  // of coin flips does not depend on the swept probability — which is what
  // lets redundant-fraction sweep points share one memoized substream
  // fast-forward. If chance() ever short-circuits for p <= 0 or p >= 1,
  // the memo key must grow a fraction field.
  Rng a(23);
  Rng b(23);
  const double ps_a[] = {0.0, 0.3, 1.0, -1.0, 0.5};
  const double ps_b[] = {0.9, 0.1, 2.0, 0.7, 0.0};
  for (int i = 0; i < 5; ++i) {
    (void)a.chance(ps_a[i]);
    (void)b.chance(ps_b[i]);
    ASSERT_EQ(a.fingerprint(), b.fingerprint()) << "diverged at flip " << i;
  }
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ULL);
  Rng rng(18);
  EXPECT_NE(rng(), rng());
}

}  // namespace
}  // namespace rrsim::util

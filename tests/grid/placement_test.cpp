#include "rrsim/grid/placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace rrsim::grid {
namespace {

const std::vector<int> kTenIdentical(10, 128);
const std::vector<std::size_t> kNoQueues{};

PlatformView view_of(const std::vector<int>& sizes,
                     const std::vector<std::size_t>& queues = kNoQueues) {
  return PlatformView{sizes, *std::min_element(sizes.begin(), sizes.end()),
                      queues};
}

/// The picks `policy` appends to an empty target list.
std::vector<std::size_t> choose(const PlacementPolicy& policy,
                                std::size_t origin, int nodes,
                                const PlatformView& view, std::size_t count,
                                util::Rng& rng) {
  std::vector<std::size_t> picks;
  policy.choose_remotes(origin, nodes, view, count, rng, picks);
  return picks;
}

TEST(UniformPlacement, NeverPicksOriginOrDuplicates) {
  util::Rng rng(1);
  const UniformPlacement p;
  for (int trial = 0; trial < 500; ++trial) {
    const auto picks = choose(p, 3, 16, view_of(kTenIdentical), 4, rng);
    ASSERT_EQ(picks.size(), 4u);
    std::set<std::size_t> unique(picks.begin(), picks.end());
    ASSERT_EQ(unique.size(), picks.size());
    ASSERT_EQ(unique.count(3), 0u);
    for (const std::size_t c : picks) ASSERT_LT(c, 10u);
  }
}

TEST(UniformPlacement, IsApproximatelyUniform) {
  util::Rng rng(2);
  const UniformPlacement p;
  std::map<std::size_t, int> counts;
  const int trials = 90000;
  for (int i = 0; i < trials; ++i) {
    for (const std::size_t c : choose(p, 0, 1, view_of(kTenIdentical), 1, rng)) {
      ++counts[c];
    }
  }
  for (std::size_t c = 1; c < 10; ++c) {
    EXPECT_NEAR(counts[c], trials / 9, trials / 9 * 0.1) << "cluster " << c;
  }
}

TEST(UniformPlacement, AllRemotesWhenCountIsLarge) {
  util::Rng rng(3);
  const UniformPlacement p;
  const auto picks = choose(p, 0, 1, view_of(kTenIdentical), 99, rng);
  EXPECT_EQ(picks.size(), 9u);  // everything except the origin
}

TEST(UniformPlacement, FiltersCapacityIneligibleClusters) {
  util::Rng rng(4);
  const UniformPlacement p;
  const std::vector<int> sizes{16, 32, 64, 128, 256};
  for (int trial = 0; trial < 200; ++trial) {
    const auto picks = choose(p, 4, 100, view_of(sizes), 4, rng);
    ASSERT_EQ(picks.size(), 1u);  // only cluster 3 (128) qualifies
    EXPECT_EQ(picks[0], 3u);
  }
}

TEST(UniformPlacement, NoEligibleRemotes) {
  util::Rng rng(5);
  const UniformPlacement p;
  const std::vector<int> sizes{256, 16, 16};
  EXPECT_TRUE(choose(p, 0, 100, view_of(sizes), 3, rng).empty());
}

TEST(BiasedPlacement, GeometricWeighting) {
  util::Rng rng(6);
  const BiasedPlacement p;
  std::map<std::size_t, int> counts;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    // Origin 9 so that eligible remotes are clusters 0..8 in id order.
    for (const std::size_t c : choose(p, 9, 1, view_of(kTenIdentical), 1, rng)) {
      ++counts[c];
    }
  }
  // Each cluster should be picked ~twice as often as the next one.
  for (std::size_t c = 0; c + 1 < 6; ++c) {
    const double ratio = static_cast<double>(counts[c]) /
                         static_cast<double>(counts[c + 1]);
    EXPECT_NEAR(ratio, 2.0, 0.25) << "clusters " << c << "/" << c + 1;
  }
}

TEST(BiasedPlacement, WithoutReplacement) {
  util::Rng rng(7);
  const BiasedPlacement p;
  for (int trial = 0; trial < 500; ++trial) {
    const auto picks = choose(p, 0, 1, view_of(kTenIdentical), 9, rng);
    ASSERT_EQ(picks.size(), 9u);
    std::set<std::size_t> unique(picks.begin(), picks.end());
    ASSERT_EQ(unique.size(), 9u);
    ASSERT_EQ(unique.count(0), 0u);
  }
}

TEST(BiasedPlacement, RespectsCapacityFilter) {
  util::Rng rng(8);
  const BiasedPlacement p;
  const std::vector<int> sizes{16, 256, 16, 256, 16};
  for (int trial = 0; trial < 200; ++trial) {
    const auto picks = choose(p, 1, 100, view_of(sizes), 3, rng);
    ASSERT_EQ(picks.size(), 1u);
    EXPECT_EQ(picks[0], 3u);
  }
}

TEST(LeastLoadedPlacement, PicksShortestQueues) {
  util::Rng rng(9);
  const LeastLoadedPlacement p;
  const std::vector<std::size_t> queues{50, 3, 40, 1, 20, 7, 60, 2, 90, 10};
  const PlatformView view = view_of(kTenIdentical, queues);
  const auto picks = choose(p, 0, 1, view, 3, rng);
  // Shortest remote queues: cluster 3 (1), 7 (2), 1 (3).
  EXPECT_EQ(picks, (std::vector<std::size_t>{3, 7, 1}));
}

TEST(LeastLoadedPlacement, TieBreaksByClusterId) {
  util::Rng rng(10);
  const LeastLoadedPlacement p;
  const std::vector<int> sizes(4, 128);
  const std::vector<std::size_t> queues{5, 5, 5, 5};
  const PlatformView view = view_of(sizes, queues);
  const auto picks = choose(p, 2, 1, view, 2, rng);
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 1}));
}

TEST(LeastLoadedPlacement, RespectsCapacityFilter) {
  util::Rng rng(11);
  const LeastLoadedPlacement p;
  const std::vector<int> sizes{256, 16, 256, 16};
  const std::vector<std::size_t> queues{9, 0, 5, 0};
  const PlatformView view = view_of(sizes, queues);
  const auto picks = choose(p, 0, 100, view, 4, rng);
  EXPECT_EQ(picks, (std::vector<std::size_t>{2}));  // only fitting remote
}

TEST(LeastLoadedPlacement, FallsBackToUniformWithoutQueueData) {
  util::Rng rng(12);
  const LeastLoadedPlacement p;
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto picks = choose(p, 0, 1, view_of(kTenIdentical), 1, rng);
    ASSERT_EQ(picks.size(), 1u);
    seen.insert(picks[0]);
  }
  EXPECT_GT(seen.size(), 5u);  // random spread, not a fixed answer
}

TEST(PlacementPolicy, AppendsAfterTheTargetsAlreadyListed) {
  const std::vector<std::size_t> queues{4, 3, 2, 1, 0, 9, 9, 9, 9, 9};
  const UniformPlacement uniform;
  const BiasedPlacement biased;
  const LeastLoadedPlacement least;
  for (const PlacementPolicy* p :
       std::vector<const PlacementPolicy*>{&uniform, &biased, &least}) {
    util::Rng rng(13);
    std::vector<std::size_t> targets{5};
    p->choose_remotes(5, 1, view_of(kTenIdentical, queues), 3, rng, targets);
    ASSERT_EQ(targets.size(), 4u) << p->name();
    EXPECT_EQ(targets[0], 5u) << p->name();
    std::set<std::size_t> unique(targets.begin(), targets.end());
    EXPECT_EQ(unique.size(), 4u) << p->name();
  }
}

TEST(PlacementPolicy, OnlyLeastLoadedReadsQueueLengths) {
  EXPECT_FALSE(UniformPlacement().reads_queue_lengths());
  EXPECT_FALSE(BiasedPlacement().reads_queue_lengths());
  EXPECT_TRUE(LeastLoadedPlacement().reads_queue_lengths());
}

// The uniform draw as it was before the implicit pool, kept verbatim as
// the oracle: list every eligible remote in id order, then shuffle a
// prefix of the copy.
std::vector<std::size_t> eligible_remotes(std::size_t origin, int nodes,
                                          const PlatformView& view) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < view.cluster_sizes.size(); ++i) {
    if (i != origin && view.cluster_sizes[i] >= nodes) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> uniform_choice(std::vector<std::size_t> pool,
                                        std::size_t count, util::Rng& rng) {
  // Partial Fisher-Yates: draw min(count, pool) distinct clusters.
  const std::size_t take = std::min(count, pool.size());
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.below(pool.size() - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(take);
  return pool;
}

TEST(UniformPlacementOracle, MatchesTheListedPoolDrawForDraw) {
  // Every pool size m = N - 1 in [1, 64], every pick count in [0, m + 2],
  // every origin, on identical clusters and on mixed sizes with a job
  // that fits every cluster or only some, over several seeds. The picks
  // and the generator's state afterwards must equal the oracle's, and
  // both sides of the picks^2 <= m choice (implicit pool or listed pool)
  // must be reached.
  const UniformPlacement uniform;
  std::size_t implicit_cases = 0;
  std::size_t listed_cases = 0;
  std::vector<std::size_t> want;  // reused: the loop runs ~10^6 cases
  std::vector<std::size_t> targets;
  for (std::size_t m = 1; m <= 64; ++m) {
    const std::size_t n = m + 1;
    std::vector<int> mixed(n);
    for (std::size_t i = 0; i < n; ++i) {
      mixed[i] = 16 << static_cast<int>((i * 7 + m) % 5);  // 16 .. 256
    }
    const std::vector<int> identical(n, 128);
    // Identical clusters, then mixed sizes with a job that fits every
    // cluster and with one that fits only some.
    const std::pair<const std::vector<int>*, int> shapes[] = {
        {&identical, 1}, {&mixed, 1}, {&mixed, 100}};
    for (const auto& [sizes, nodes] : shapes) {
      const PlatformView view = view_of(*sizes);
      for (std::size_t count = 0; count <= m + 2; ++count) {
        const std::size_t take = std::min(count, m);
        if (nodes <= view.smallest_cluster && take * take <= m) {
          ++implicit_cases;
        } else {
          ++listed_cases;
        }
        for (std::size_t origin = 0; origin < n; ++origin) {
          for (const std::uint64_t seed : {1u, 7919u, 424242u}) {
            util::Rng rng(seed, m * 131 + count);
            util::Rng want_rng = rng;
            want.assign(1, origin);
            for (const std::size_t c : uniform_choice(
                     eligible_remotes(origin, nodes, view), count,
                     want_rng)) {
              want.push_back(c);
            }
            targets.assign(1, origin);
            uniform.choose_remotes(origin, nodes, view, count, rng,
                                   targets);
            const auto where = [&] {
              return ::testing::Message()
                     << "m=" << m << " count=" << count
                     << " origin=" << origin << " nodes=" << nodes
                     << " seed=" << seed;
            };
            ASSERT_EQ(targets, want) << where();
            ASSERT_EQ(rng.fingerprint(), want_rng.fingerprint()) << where();
          }
        }
      }
    }
  }
  EXPECT_GT(implicit_cases, 0u);
  EXPECT_GT(listed_cases, 0u);
}

TEST(UniformPlacementOracle, LeastLoadedWithoutQueuesDrawsTheSame) {
  const LeastLoadedPlacement blind;
  for (const std::size_t count : {1u, 3u, 9u}) {
    for (std::size_t origin = 0; origin < kTenIdentical.size(); ++origin) {
      util::Rng rng(29, origin);
      util::Rng want_rng = rng;
      const std::vector<std::size_t> want = uniform_choice(
          eligible_remotes(origin, 1, view_of(kTenIdentical)), count,
          want_rng);
      EXPECT_EQ(choose(blind, origin, 1, view_of(kTenIdentical), count, rng),
                want);
      EXPECT_EQ(rng.fingerprint(), want_rng.fingerprint());
    }
  }
}

TEST(UniformPlacementOracle, ManyPicksFromALargePlatform) {
  // Past the implicit draw's 32-pick stack bound the pool is listed; both
  // sides of the bound, and of picks^2 <= m, must still match the oracle.
  const UniformPlacement uniform;
  const std::vector<int> sizes(10000, 128);
  for (const std::size_t count : {3u, 31u, 32u, 33u, 99u, 100u, 101u}) {
    util::Rng rng(17, count);
    util::Rng want_rng = rng;
    const std::vector<std::size_t> want = uniform_choice(
        eligible_remotes(4321, 1, view_of(sizes)), count, want_rng);
    EXPECT_EQ(choose(uniform, 4321, 1, view_of(sizes), count, rng), want)
        << "count=" << count;
    EXPECT_EQ(rng.fingerprint(), want_rng.fingerprint()) << "count=" << count;
  }
}

TEST(MakePlacement, Factory) {
  EXPECT_EQ(make_placement("uniform")->name(), "uniform");
  EXPECT_EQ(make_placement("biased")->name(), "biased");
  EXPECT_EQ(make_placement("least-loaded")->name(), "least-loaded");
  EXPECT_THROW(make_placement("fancy"), std::invalid_argument);
}

}  // namespace
}  // namespace rrsim::grid

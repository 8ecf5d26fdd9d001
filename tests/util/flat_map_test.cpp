// Property tests for the flat containers backing the kernel hot paths.
// Each container is driven by a long randomized operation sequence and
// checked against the std:: associative container it replaced, including
// across rehash/growth boundaries and backward-shift deletions.
#include "rrsim/util/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

namespace {

using rrsim::util::DenseIdMap;
using rrsim::util::FlatHashMap;
using rrsim::util::FlatOrderedMap;

template <typename Flat>
void expect_same_contents(const Flat& flat,
                          const std::map<std::uint64_t, int>& oracle) {
  ASSERT_EQ(flat.size(), oracle.size());
  std::map<std::uint64_t, int> seen;
  flat.for_each([&seen](std::uint64_t k, int v) { seen.emplace(k, v); });
  EXPECT_EQ(seen, oracle);
}

TEST(FlatHashMap, RandomizedAgainstMapOracle) {
  std::mt19937 rng(12345);
  FlatHashMap<std::uint64_t, int> flat;
  std::map<std::uint64_t, int> oracle;
  // A small key universe forces collisions, probe chains that wrap the
  // table, and backward-shift deletions inside long runs.
  std::uniform_int_distribution<std::uint64_t> key_dist(0, 255);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t k = key_dist(rng);
    switch (rng() % 5u) {
      case 0: {
        const auto r = flat.try_emplace(k, step);
        const auto o = oracle.try_emplace(k, step);
        EXPECT_EQ(r.inserted, o.second);
        EXPECT_EQ(*r.value, o.first->second);
        break;
      }
      case 1:
        EXPECT_EQ(flat.erase(k), oracle.erase(k) > 0);
        break;
      case 2: {
        int* v = flat.find(k);
        const auto it = oracle.find(k);
        ASSERT_EQ(v != nullptr, it != oracle.end());
        if (v != nullptr) {
          EXPECT_EQ(*v, it->second);
        }
        EXPECT_EQ(flat.contains(k), v != nullptr);
        break;
      }
      case 3:
        ++flat[k];
        ++oracle[k];
        break;
      case 4: {
        int* v = flat.find(k);
        if (v != nullptr) {
          *v = step;
          oracle[k] = step;
        }
        break;
      }
    }
    if (step % 2500 == 0) expect_same_contents(flat, oracle);
  }
  expect_same_contents(flat, oracle);
}

TEST(FlatHashMap, SequentialIdsSurviveGrowth) {
  // Sequential keys are the common case (job ids) and the worst case for
  // a power-of-two table without hash mixing; growth rehashes everything.
  FlatHashMap<std::uint64_t, std::uint64_t> flat;
  constexpr std::uint64_t kN = 10000;
  for (std::uint64_t k = 0; k < kN; ++k) {
    const auto r = flat.try_emplace(k, k * 3);
    ASSERT_TRUE(r.inserted);
  }
  ASSERT_EQ(flat.size(), kN);
  for (std::uint64_t k = 0; k < kN; k += 3) EXPECT_TRUE(flat.erase(k));
  for (std::uint64_t k = 0; k < kN; ++k) {
    const std::uint64_t* v = flat.find(k);
    if (k % 3 == 0) {
      EXPECT_EQ(v, nullptr);
    } else {
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(*v, k * 3);
    }
  }
}

TEST(FlatHashMap, ClearKeepsWorkingAndAtThrows) {
  FlatHashMap<std::uint64_t, int> flat;
  for (std::uint64_t k = 0; k < 100; ++k) flat.try_emplace(k, 1);
  flat.clear();
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(flat.find(5), nullptr);
  EXPECT_THROW(flat.at(5), std::out_of_range);
  flat.try_emplace(7, 42);
  EXPECT_EQ(flat.at(7), 42);
  EXPECT_EQ(flat.size(), 1u);
}

TEST(FlatHashMap, ReservePreventsGrowthRehash) {
  FlatHashMap<std::uint64_t, int> flat;
  flat.reserve(1000);
  for (std::uint64_t k = 0; k < 1000; ++k) flat.try_emplace(k, 1);
  EXPECT_EQ(flat.size(), 1000u);
}

TEST(FlatOrderedMap, RandomizedAgainstMapOracleWithOrder) {
  std::mt19937 rng(999);
  FlatOrderedMap<std::uint64_t, int> flat;
  std::map<std::uint64_t, int> oracle;
  std::uniform_int_distribution<std::uint64_t> key_dist(0, 127);
  for (int step = 0; step < 8000; ++step) {
    const std::uint64_t k = key_dist(rng);
    switch (rng() % 3u) {
      case 0: {
        const auto r = flat.emplace(k, step);
        const auto o = oracle.emplace(k, step);
        EXPECT_EQ(r.second, o.second);
        EXPECT_EQ(r.first->second, o.first->second);
        break;
      }
      case 1:
        EXPECT_EQ(flat.erase(k), oracle.erase(k) > 0);
        break;
      case 2: {
        const auto it = flat.find(k);
        const auto o = oracle.find(k);
        ASSERT_EQ(it != flat.end(), o != oracle.end());
        if (it != flat.end()) {
          EXPECT_EQ(it->second, o->second);
        }
        break;
      }
    }
    if (step % 1000 == 0) {
      // Iteration must visit keys in ascending order with oracle-equal
      // contents — the profile-rebuild paths depend on this order.
      ASSERT_EQ(flat.size(), oracle.size());
      auto oit = oracle.begin();
      for (const auto& [key, value] : flat) {
        ASSERT_NE(oit, oracle.end());
        EXPECT_EQ(key, oit->first);
        EXPECT_EQ(value, oit->second);
        ++oit;
      }
    }
  }
}

TEST(DenseIdMap, InsertFindEraseAndClear) {
  DenseIdMap<int> map;
  for (std::uint64_t id = 1; id <= 64; ++id) {
    map.insert(id, static_cast<int>(id * 7));
  }
  EXPECT_EQ(map.size(), 64u);
  EXPECT_EQ(map.find(0), nullptr);
  for (std::uint64_t id = 1; id <= 64; id += 2) EXPECT_TRUE(map.erase(id));
  EXPECT_FALSE(map.erase(3));  // already gone
  for (std::uint64_t id = 1; id <= 64; ++id) {
    const int* v = map.find(id);
    if (id % 2 == 1) {
      EXPECT_EQ(v, nullptr);
    } else {
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(*v, static_cast<int>(id * 7));
    }
  }
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(2), nullptr);
  map.insert(2, 5);
  EXPECT_EQ(*map.find(2), 5);
}

}  // namespace

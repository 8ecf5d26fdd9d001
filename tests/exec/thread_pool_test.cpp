// Pool and worker-count semantics only — no simulator dependency, so this file
// can also be compiled standalone under ThreadSanitizer (see
// tests/CMakeLists.txt, RRSIM_TSAN).
#include "rrsim/exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "rrsim/exec/jobs.h"

namespace rrsim::exec {
namespace {

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  ThreadPool pool2(-3);
  EXPECT_EQ(pool2.size(), 1);
}

TEST(ParallelForEach, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const int n = 500;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  parallel_for_each(pool, n, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelForEach, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  parallel_for_each(pool, 0, [](int) { FAIL(); });
  parallel_for_each(pool, -5, [](int) { FAIL(); });
}

TEST(ParallelForEach, RethrowsLowestFailingIndex) {
  ThreadPool pool(4);
  try {
    parallel_for_each(pool, 64, [](int i) {
      if (i % 7 == 3) {  // fails at 3, 10, 17, ...
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

TEST(ParallelForEach, BackToBackLoopsRunEveryIndexOnce) {
  // The per-window PDES shape: many short loops on one pool. A worker that
  // missed a loop, ran one twice or returned before its last index would
  // show as a count other than 1.
  ThreadPool pool(4);
  constexpr int kLoops = 10000;
  constexpr int kN = 8;
  std::vector<std::atomic<int>> hits(kN);
  int bad_loops = 0;
  for (int loop = 0; loop < kLoops; ++loop) {
    for (std::atomic<int>& h : hits) h.store(0, std::memory_order_relaxed);
    parallel_for_each(pool, kN, [&hits](int i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    });
    for (const std::atomic<int>& h : hits) {
      if (h.load(std::memory_order_relaxed) != 1) {
        ++bad_loops;
        break;
      }
    }
  }
  EXPECT_EQ(bad_loops, 0);
}

TEST(ParallelForEach, LoopAfterAThrowingLoopRunsNormally) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for_each(pool, 16,
                                 [](int i) {
                                   if (i == 5) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  std::vector<int> out(16, 0);
  parallel_for_each(pool, 16, [&out](int i) {
    out[static_cast<std::size_t>(i)] = i * i;
  });
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i) << "index " << i;
  }
}

TEST(ParallelForEach, FewerIndicesThanWorkers) {
  ThreadPool pool(8);
  for (int n = 1; n < 8; ++n) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    parallel_for_each(pool, n, [&hits](int i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "n " << n << " index " << i;
    }
  }
}

TEST(JobsResolution, ExplicitBeatsDefaultBeatsHardware) {
  set_default_jobs(0);  // reset process default
  EXPECT_EQ(resolve_jobs(7), 7);
  EXPECT_GE(resolve_jobs(0), 1);  // hardware fallback
  set_default_jobs(3);
  EXPECT_EQ(resolve_jobs(0), 3);
  EXPECT_EQ(default_jobs(), 3);
  EXPECT_EQ(resolve_jobs(2), 2);  // explicit still wins
  set_default_jobs(0);
}

TEST(JobsResolution, EnvVariableIsHonoured) {
  set_default_jobs(0);
  ASSERT_EQ(setenv("RRSIM_JOBS", "5", 1), 0);
  EXPECT_EQ(resolve_jobs(0), 5);
  ASSERT_EQ(setenv("RRSIM_JOBS", "garbage", 1), 0);
  EXPECT_THROW(resolve_jobs(0), std::invalid_argument);
  for (const char* bad : {"0", "5000", "-2", "3x"}) {
    ASSERT_EQ(setenv("RRSIM_JOBS", bad, 1), 0);
    EXPECT_THROW(resolve_jobs(0), std::invalid_argument) << bad;
  }
  EXPECT_EQ(resolve_jobs(2), 2);  // an explicit count never reads the env
  ASSERT_EQ(setenv("RRSIM_JOBS", "", 1), 0);
  EXPECT_GE(resolve_jobs(0), 1);  // empty means unset: hardware fallback
  ASSERT_EQ(unsetenv("RRSIM_JOBS"), 0);
}

}  // namespace
}  // namespace rrsim::exec

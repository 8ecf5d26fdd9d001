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

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DestructorDrainsOutstandingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // no wait_idle: the destructor must finish the queue before joining
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.wait_idle();  // idle pool: returns immediately
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
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
  EXPECT_GE(resolve_jobs(0), 1);  // malformed env falls through to hardware
  ASSERT_EQ(unsetenv("RRSIM_JOBS"), 0);
}

}  // namespace
}  // namespace rrsim::exec

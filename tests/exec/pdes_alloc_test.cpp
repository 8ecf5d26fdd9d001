// Pins the PDES message path's zero-allocation guarantee: once the
// mailboxes, the pending list and every partition's event slab are warm,
// posting a message that carries a whole sched::Job (the gateway's
// submit message) and delivering it across the window barrier performs
// no heap allocation — on the calling thread and on pooled windows alike.
// Global operator new is replaced with a counting shim for this binary,
// so any allocation anywhere in the measured windows fails the test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "rrsim/exec/pdes.h"
#include "rrsim/sched/job.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// Never inlined: GCC 12 flags free() on a pointer from an operator new it
// did not inline (-Wmismatched-new-delete), as in sanitizer builds.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using rrsim::exec::PdesCoordinator;

constexpr double kLookahead = 1.0;
constexpr int kTokens = 16;  // messages in flight at any time

/// A message carrying a job to the other of two partitions; on delivery it
/// bumps the job and posts it back, one lookahead later. Each partition
/// writes only its own received counter, as the partition contract asks.
struct Bounce {
  PdesCoordinator* coord;
  std::uint64_t* received;  // one counter per partition
  std::size_t at;           // partition this message runs on
  rrsim::sched::Job job;

  void operator()() const {
    ++received[at];
    rrsim::sched::Job next = job;
    next.id += kTokens;
    next.submit_time = coord->partition(at).now();
    const std::size_t to = 1 - at;
    coord->post(at, to, next.submit_time + kLookahead,
                rrsim::des::Priority::kArrival,
                Bounce{coord, received, to, next});
  }
};
static_assert(sizeof(Bounce) >= sizeof(rrsim::sched::Job) + 16,
              "the message must be at least as large as the gateway's "
              "submit capture: a job plus two words");

void seed_tokens(PdesCoordinator& coord, std::uint64_t* received) {
  for (int k = 0; k < kTokens; ++k) {
    rrsim::sched::Job job;
    job.id = static_cast<rrsim::sched::JobId>(k + 1);
    job.nodes = 1 + k % 4;
    job.requested_time = 60.0 + k;
    job.actual_time = 30.0 + k;
    const std::size_t from = static_cast<std::size_t>(k % 2);
    coord.partition(from).schedule_at(
        0.1 * k, [&coord, received, from, job] {
          coord.post(from, 1 - from, coord.partition(from).now() + kLookahead,
                     rrsim::des::Priority::kArrival,
                     Bounce{&coord, received, 1 - from, job});
        });
  }
}

/// Warms a two-partition coordinator with `jobs` workers, then counts the
/// allocations of 200 further windows of job-carrying messages.
void expect_warm_windows_allocation_free(int jobs) {
  PdesCoordinator coord(2, kLookahead, jobs);
  ASSERT_EQ(coord.jobs(), jobs);
  std::uint64_t received[2] = {0, 0};
  seed_tokens(coord, received);

  // Warm the mailboxes, the pending list and both event slabs.
  coord.run(200.0);
  ASSERT_GT(coord.messages_delivered(), 0u);

  const std::uint64_t windows_before = coord.windows();
  const std::uint64_t delivered_before = coord.messages_delivered();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  coord.run(400.0);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "posting or delivering a job-carrying message allocated";
  EXPECT_GE(coord.windows() - windows_before, 150u);
  EXPECT_GE(coord.messages_delivered() - delivered_before,
            static_cast<std::uint64_t>(kTokens) * 150u);
  EXPECT_EQ(received[0] + received[1], coord.messages_delivered());
}

TEST(PdesAllocation, WarmWindowsOnOneWorkerDoNotAllocate) {
  expect_warm_windows_allocation_free(1);
}

TEST(PdesAllocation, WarmPooledWindowsDoNotAllocate) {
  expect_warm_windows_allocation_free(2);
}

TEST(PdesAllocation, ColdCoordinatorAllocatesWhileGrowing) {
  // Sanity check on the shim: the first windows must allocate (mailboxes
  // and slabs grow from empty), otherwise the zero above proves nothing.
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  PdesCoordinator coord(2, kLookahead, 1);
  std::uint64_t received[2] = {0, 0};
  seed_tokens(coord, received);
  coord.run(50.0);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(after - before, 0u);
  EXPECT_GT(coord.messages_delivered(), 0u);
}

}  // namespace

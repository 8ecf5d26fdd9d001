// Pins the kernel's zero-allocation guarantee: once the event slab, free
// list and heap are warm, the schedule → dispatch path (including cancels,
// cancel-and-reschedule churn, in-place reschedules and run_until)
// performs no heap allocation.
// Global operator new is replaced with a counting shim for this binary,
// so any allocation anywhere in the measured window fails the test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "rrsim/des/simulation.h"

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

using rrsim::des::Simulation;
using rrsim::des::Time;

// One round of representative kernel traffic: a burst of events spread
// over a wide horizon, sparse cancellations, a bounded run_until, then
// drain. `handles` must be pre-reserved by the caller so handle
// bookkeeping itself cannot allocate.
void churn_round(Simulation& sim, std::vector<Simulation::EventHandle>& handles,
                 std::uint64_t* dispatched_sink) {
  constexpr int kEvents = 600;
  handles.clear();
  const Time base = sim.now();
  for (int i = 0; i < kEvents; ++i) {
    const Time t = base + 1.0 + static_cast<Time>((i * 37) % 1000) * 25.0;
    handles.push_back(
        sim.schedule_at(t, [dispatched_sink] { ++*dispatched_sink; }));
  }
  for (std::size_t i = 0; i < handles.size(); i += 7) handles[i].cancel();
  sim.run_until(base + 9000.0);
  sim.run();
}

TEST(KernelAllocation, WarmScheduleDispatchPathDoesNotAllocate) {
  Simulation sim;
  std::vector<Simulation::EventHandle> handles;
  handles.reserve(600);
  std::uint64_t sink = 0;
  // Warm every arena the workload can touch: slab, free list and heap —
  // including the post-reset re-warm path.
  churn_round(sim, handles, &sink);
  sim.reset();
  churn_round(sim, handles, &sink);
  sim.reset();

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  churn_round(sim, handles, &sink);
  sim.reset();
  churn_round(sim, handles, &sink);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "schedule/dispatch/cancel/reset allocated on a warm kernel";
  EXPECT_GT(sink, 0u);
}

TEST(KernelAllocation, CancelRescheduleChurnDoesNotGrowTheQueue) {
  // CBF keeps one wake-up event and, on every scheduling pass, cancels it
  // and schedules a fresh one a few seconds ahead — many passes can run at
  // one instant. Cancelled queue entries must not pile up: once warm, the
  // churn allocates nothing however long it runs.
  Simulation sim;
  std::uint64_t sink = 0;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(1000.0 + i, [&sink] { ++sink; });
  }
  Simulation::EventHandle wakeup = sim.schedule_at(5.0, [&sink] { ++sink; });
  sim.run_until(1.0);
  const auto pass = [&](int i) {
    wakeup.cancel();
    wakeup = sim.schedule_in(2.0 + static_cast<Time>(i % 3),
                             [&sink] { ++sink; });
  };
  for (int i = 0; i < 1000; ++i) pass(i);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; ++i) pass(i);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "cancel/reschedule churn grew the event queue";
  EXPECT_EQ(sim.pending_events(), 51u);
  sim.run();
  EXPECT_EQ(sink, 51u);
}

TEST(KernelAllocation, SameTimeReschedulesPushNoHeapEntry) {
  // CBF's wake-up, moved with EventHandle::reschedule on every pass and
  // nearly always to the time it already has: each move counts as a
  // cancel plus a schedule, yet it allocates nothing and leaves the heap
  // untouched.
  Simulation sim;
  std::uint64_t sink = 0;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(1000.0 + i, [&sink] { ++sink; });
  }
  Simulation::EventHandle wakeup = sim.schedule_at(5.0, [&sink] { ++sink; });
  sim.run_until(1.0);
  const std::uint64_t pushes = sim.heap_pushes();

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  bool moved = true;
  for (int i = 0; i < 100000; ++i) moved = wakeup.reschedule(5.0) && moved;
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(moved);
  EXPECT_EQ(after - before, 0u) << "same-time reschedules allocated";
  EXPECT_EQ(sim.heap_pushes(), pushes);
  EXPECT_EQ(sim.scheduled(), 51u + 100000u);
  EXPECT_EQ(sim.cancelled(), 100000u);
  EXPECT_EQ(sim.pending_events(), 51u);
  sim.run();
  EXPECT_EQ(sink, 51u);
}

TEST(KernelAllocation, ColdKernelAllocatesOnlyWhileGrowing) {
  // Sanity check on the shim itself: the first round must allocate (the
  // slab and heap grow from empty), otherwise the counter is broken and
  // the zero-allocation assertion above proves nothing.
  Simulation sim;
  std::vector<Simulation::EventHandle> handles;
  handles.reserve(600);
  std::uint64_t sink = 0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  churn_round(sim, handles, &sink);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(after - before, 0u);
}

}  // namespace

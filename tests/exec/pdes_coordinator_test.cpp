// Coordinator-level tests for the conservative PDES protocol: mailbox
// ordering, the lookahead contract, run-limit semantics, and the central
// guarantee — traces bit-identical for any worker count. The worker-count
// tests construct the coordinator with jobs = 0 (resolved via --jobs /
// RRSIM_JOBS), so CI can re-run this binary under an RRSIM_JOBS matrix
// and exercise the pooled path with real thread counts.
#include "rrsim/exec/pdes.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "rrsim/exec/jobs.h"

namespace rrsim::exec {
namespace {

std::string stamp(std::size_t partition, double t, int hops) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "p%zu@%.3f#%d", partition, t, hops);
  return buf;
}

/// Four partitions passing tokens around a ring with local echo events in
/// between. Each partition's callbacks write only that partition's log
/// slot (the vector is pre-sized, so no reallocation), which is exactly
/// the thread-confinement contract worker callbacks must obey.
std::vector<std::string> run_ring(int jobs, std::uint64_t* windows_out,
                                  std::uint64_t* delivered_out) {
  constexpr std::size_t kN = 4;
  constexpr double kLookahead = 2.0;
  constexpr double kEnd = 40.0;
  PdesCoordinator coord(kN, kLookahead, jobs);
  std::vector<std::vector<std::string>> log(kN);
  std::function<void(std::size_t, int)> hop = [&](std::size_t p, int hops) {
    des::Simulation& sim = coord.partition(p);
    log[p].push_back(stamp(p, sim.now(), hops));
    // Local work between hops: same-partition events need no mailbox.
    sim.schedule_in(0.7, [&log, &coord, p] {
      log[p].push_back(stamp(p, coord.partition(p).now(), -1));
    });
    if (sim.now() + kLookahead > kEnd) return;
    const std::size_t dest = (p + 1) % kN;
    coord.post(p, dest, sim.now() + kLookahead, des::Priority::kArrival,
               [&hop, dest, hops] { hop(dest, hops + 1); });
  };
  for (std::size_t p = 0; p < kN; ++p) {
    coord.partition(p).schedule_at(0.25 * static_cast<double>(p),
                                   [&hop, p] { hop(p, 0); });
  }
  coord.run();
  if (windows_out != nullptr) *windows_out = coord.windows();
  if (delivered_out != nullptr) *delivered_out = coord.messages_delivered();
  std::vector<std::string> flat;
  for (std::size_t p = 0; p < kN; ++p) {
    for (const std::string& s : log[p]) flat.push_back(s);
  }
  return flat;
}

TEST(PdesCoordinator, ValidatesConstruction) {
  EXPECT_THROW(PdesCoordinator(0, 1.0), std::invalid_argument);
  EXPECT_THROW(PdesCoordinator(2, 0.0), std::invalid_argument);
  EXPECT_THROW(PdesCoordinator(2, -1.0), std::invalid_argument);
  EXPECT_THROW(PdesCoordinator(2, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(PdesCoordinator(2, std::nan("")), std::invalid_argument);
}

TEST(PdesCoordinator, ClampsJobsToPartitionCount) {
  PdesCoordinator coord(2, 1.0, 8);
  EXPECT_EQ(coord.jobs(), 2);
  PdesCoordinator one(3, 1.0, 1);
  EXPECT_EQ(one.jobs(), 1);
}

TEST(PdesCoordinator, JobsZeroResolvesLikeCampaigns) {
  // jobs = 0 goes through resolve_jobs(): --jobs default, then
  // RRSIM_JOBS, then hardware_concurrency — clamped to the partitions.
  PdesCoordinator coord(4, 1.0, 0);
  const int expected = resolve_jobs(0) < 4 ? resolve_jobs(0) : 4;
  EXPECT_EQ(coord.jobs(), expected);
  EXPECT_GE(coord.jobs(), 1);
}

TEST(PdesCoordinator, MailboxTieBreakOrder) {
  // Five messages, all due at the same instant at partition 0. Delivery
  // must follow (time, priority, source, seq) regardless of posting
  // order, and the destination kernel preserves that order for the
  // same-(time, priority) runs because injection order sets its seq.
  constexpr double kL = 10.0;
  PdesCoordinator coord(4, kL, 1);
  std::vector<std::string> order;
  auto tag = [&order](const char* name) {
    return [&order, name] { order.emplace_back(name); };
  };
  coord.partition(1).schedule_at(0.0, [&] {
    coord.post(1, 0, kL, des::Priority::kControl, tag("A"));     // seq 0
    coord.post(1, 0, kL, des::Priority::kCompletion, tag("B"));  // seq 1
  });
  coord.partition(2).schedule_at(0.0, [&] {
    coord.post(2, 0, kL, des::Priority::kCompletion, tag("C"));  // seq 0
    coord.post(2, 0, kL, des::Priority::kCompletion, tag("D"));  // seq 1
  });
  coord.partition(3).schedule_at(0.0, [&] {
    coord.post(3, 0, kL, des::Priority::kArrival, tag("E"));
  });
  coord.run();
  // Priority band first (completion < cancel < arrival < control), then
  // source partition, then per-source posting sequence.
  EXPECT_EQ(order, (std::vector<std::string>{"B", "C", "D", "E", "A"}));
  EXPECT_EQ(coord.messages_delivered(), 5u);
}

TEST(PdesCoordinator, MailboxOrderIsWorkerCountInvariant) {
  constexpr double kL = 10.0;
  std::vector<std::vector<std::string>> runs;
  for (const int jobs : {1, 3}) {
    PdesCoordinator coord(4, kL, jobs);
    std::vector<std::string> order;
    for (std::size_t src = 1; src < 4; ++src) {
      coord.partition(src).schedule_at(0.0, [&coord, &order, src] {
        for (int k = 0; k < 3; ++k) {
          coord.post(src, 0, kL, des::Priority::kArrival,
                     [&order, src, k] { order.push_back(stamp(src, 0, k)); });
        }
      });
    }
    coord.run();
    runs.push_back(std::move(order));
  }
  ASSERT_EQ(runs[0].size(), 9u);
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(PdesCoordinator, PostInsideLookaheadHorizonThrows) {
  PdesCoordinator coord(2, 5.0, 1);
  // now() is 0 on every partition: anything below t = 5 violates the
  // conservative contract.
  EXPECT_THROW(
      coord.post(0, 1, 4.999, des::Priority::kArrival, [] {}),
      std::logic_error);
  // Exactly now() + lookahead is the legal boundary.
  EXPECT_NO_THROW(coord.post(0, 1, 5.0, des::Priority::kArrival, [] {}));
}

TEST(PdesCoordinator, PostValidatesArguments) {
  PdesCoordinator coord(2, 1.0, 1);
  EXPECT_THROW(coord.post(0, 7, 2.0, des::Priority::kArrival, [] {}),
               std::out_of_range);
  EXPECT_THROW(coord.post(5, 1, 2.0, des::Priority::kArrival, [] {}),
               std::out_of_range);
  EXPECT_THROW(coord.post(0, 1, 2.0, des::Priority::kArrival,
                          des::Simulation::Callback{}),
               std::invalid_argument);
}

TEST(PdesCoordinator, FiniteLimitMirrorsRunUntil) {
  // Events at the limit dispatch; later events stay queued; every
  // partition's clock ends exactly at the limit.
  PdesCoordinator coord(2, 1.0, 1);
  std::vector<std::string> fired;
  coord.partition(0).schedule_at(3.0, [&] { fired.emplace_back("early"); });
  coord.partition(1).schedule_at(10.0, [&] { fired.emplace_back("at"); });
  coord.partition(1).schedule_at(10.5, [&] { fired.emplace_back("late"); });
  // A message due exactly at the limit must be delivered too.
  coord.partition(0).schedule_at(9.0, [&] {
    coord.post(0, 1, 10.0, des::Priority::kArrival,
               [&fired] { fired.emplace_back("msg-at"); });
  });
  coord.run(10.0);
  // The kArrival message outranks the kControl event at the same instant.
  EXPECT_EQ(fired,
            (std::vector<std::string>{"early", "msg-at", "at"}));
  EXPECT_DOUBLE_EQ(coord.partition(0).now(), 10.0);
  EXPECT_DOUBLE_EQ(coord.partition(1).now(), 10.0);
  EXPECT_EQ(coord.partition(1).pending_events(), 1u);
  coord.run();
  EXPECT_EQ(fired.back(), "late");
}

TEST(PdesCoordinator, RunRejectsBadLimits) {
  PdesCoordinator coord(2, 1.0, 1);
  EXPECT_THROW(coord.run(-1.0), std::invalid_argument);
  EXPECT_THROW(coord.run(std::nan("")), std::invalid_argument);
}

TEST(PdesCoordinator, RingTraceBitIdenticalAcrossWorkerCounts) {
  std::uint64_t windows1 = 0, delivered1 = 0;
  const std::vector<std::string> ref = run_ring(1, &windows1, &delivered1);
  ASSERT_FALSE(ref.empty());
  ASSERT_GT(delivered1, 0u);
  for (const int jobs : {2, 4, 0}) {  // 0 = resolved (CI's RRSIM_JOBS axis)
    std::uint64_t windows = 0, delivered = 0;
    const std::vector<std::string> got = run_ring(jobs, &windows, &delivered);
    EXPECT_EQ(got, ref) << "jobs=" << jobs;
    EXPECT_EQ(windows, windows1) << "jobs=" << jobs;
    EXPECT_EQ(delivered, delivered1) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace rrsim::exec

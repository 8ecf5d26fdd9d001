// Tests for the PDES window primitives: next_event_time() (peek the
// earliest live timestamp without dispatching) and run_before(t) (advance
// through [now, t), stopping exactly at the horizon). The conservative
// coordinator builds its horizon computation on these two calls, so their
// edge cases — cancelled entries, empty queues, events exactly at the
// horizon — are load-bearing for cross-cluster determinism.
#include "rrsim/des/simulation.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace rrsim::des {
namespace {

TEST(HorizonApi, NextEventTimeEmptyIsInfinity) {
  Simulation sim;
  EXPECT_EQ(sim.next_event_time(), kTimeInfinity);
  sim.run_until(5.0);
  EXPECT_EQ(sim.next_event_time(), kTimeInfinity);
}

TEST(HorizonApi, NextEventTimeReturnsEarliestLiveEvent) {
  Simulation sim;
  sim.schedule_at(7.0, [] {});
  sim.schedule_at(3.0, [] {});
  sim.schedule_at(9.0, [] {});
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 3.0);
  // Peeking dispatches nothing and does not advance time.
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 3u);
}

TEST(HorizonApi, NextEventTimeSkipsCancelledEntries) {
  Simulation sim;
  Simulation::EventHandle early = sim.schedule_at(2.0, [] {});
  sim.schedule_at(6.0, [] {});
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 2.0);
  EXPECT_TRUE(early.cancel());
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 6.0);
}

TEST(HorizonApi, NextEventTimeSkipsCancelledAcrossCalendarTiers) {
  // Cancelling the whole near cohort leaves 32 cancelled entries above
  // the one far-future event; the peek must skim past all of them and
  // still report the earliest *live* timestamp.
  Simulation sim;
  std::vector<Simulation::EventHandle> near_events;
  for (int i = 0; i < 32; ++i) {
    near_events.push_back(sim.schedule_at(1.0 + i, [] {}));
  }
  sim.schedule_at(5.0e6, [] {});  // far tier
  for (Simulation::EventHandle& h : near_events) EXPECT_TRUE(h.cancel());
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 5.0e6);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(HorizonApi, RunBeforeDispatchesStrictlyBelowHorizon) {
  Simulation sim;
  std::vector<double> fired;
  sim.schedule_at(1.0, [&] { fired.push_back(1.0); });
  sim.schedule_at(2.0, [&] { fired.push_back(2.0); });
  sim.schedule_at(3.0, [&] { fired.push_back(3.0); });  // exactly at horizon
  sim.schedule_at(4.0, [&] { fired.push_back(4.0); });
  sim.run_before(3.0);
  // The event at t == 3 must NOT run: a message injected at the horizon
  // belongs to the next window.
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  // The held-back events dispatch normally afterwards.
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(HorizonApi, RunBeforeAdvancesTimeWhenQueueEmptiesEarly) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.run_before(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  EXPECT_EQ(sim.next_event_time(), kTimeInfinity);
}

TEST(HorizonApi, RunBeforeAtCurrentTimeIsANoOp) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.run_before(5.0);  // horizon == earliest event: nothing dispatches
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run_before(5.0);  // horizon == now: still legal, still a no-op
  EXPECT_EQ(fired, 0);
}

TEST(HorizonApi, RunBeforePastHorizonThrows) {
  Simulation sim;
  sim.run_until(10.0);
  EXPECT_THROW(sim.run_before(9.0), std::invalid_argument);
}

TEST(HorizonApi, CallbackScheduledInsideWindowStillRespectsHorizon) {
  // An event below the horizon may schedule another event below the
  // horizon (it runs this window) or at/after it (it waits).
  Simulation sim;
  std::vector<int> fired;
  sim.schedule_at(1.0, [&] {
    fired.push_back(1);
    sim.schedule_at(2.0, [&] { fired.push_back(2); });
    sim.schedule_at(3.0, [&] { fired.push_back(3); });
  });
  sim.run_before(3.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 3.0);
}

}  // namespace
}  // namespace rrsim::des

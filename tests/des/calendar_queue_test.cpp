// Randomized churn tests pinning the event queue to the kernel's
// documented contract: events fire in (time, priority, insertion-sequence)
// order, cancellations never fire, and this holds across wide and tied
// timestamps, mid-run insertions, purges of cancelled entries and heap
// re-use after reset. Under a tie-break policy, every group the kernel
// offers lists exactly the live events at the minimal (time, priority).
// EventHandle::reschedule is checked against the cancel() + schedule_at()
// pair it is defined as, on a twin simulation that runs the same script.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "rrsim/des/simulation.h"

namespace {

using rrsim::des::Priority;
using rrsim::des::Simulation;
using rrsim::des::TieBreakPolicy;
using rrsim::des::TieGroup;
using rrsim::des::Time;

struct Record {
  Time time = 0.0;
  int priority = 0;
  int id = 0;  // global schedule order == kernel insertion sequence
  bool cancelled = false;
};

struct Churn {
  std::vector<Record> records;
  std::vector<std::pair<Time, int>> fired;  // (time, id) in dispatch order
};

// Schedules `kBatches` waves of events with clustered + quantized times
// (quantization forces exact timestamp ties so priority/seq ordering is
// exercised), cancels a random subset between waves, and advances the
// clock partway so later waves interleave with earlier ones. A fifth of
// the events schedule a follow-up from inside their callback, a quarter
// second ahead, which fires within the same run_until window when it
// fits (micro_kernel's churn). Records are indexed by id, and ids count
// insertions, so a follow-up's id is its kernel insertion sequence.
Churn run_churn(Simulation& sim, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<Time> offset(0.0, 5000.0);
  Churn churn;
  std::vector<Simulation::EventHandle> handles;
  std::vector<int> handle_ids;  // the record each handle schedules
  int next_id = 0;
  constexpr int kBatches = 12;
  constexpr int kPerBatch = 300;
  for (int batch = 0; batch < kBatches; ++batch) {
    const Time base = sim.now();
    for (int i = 0; i < kPerBatch; ++i) {
      Time t = base + offset(rng);
      if (rng() % 3u == 0) t = base + static_cast<Time>(rng() % 50u);  // ties
      const int prio = static_cast<int>(rng() % 4u);
      const bool follow_up = rng() % 5u == 0;
      const int id = next_id++;
      churn.records.push_back(Record{t, prio, id, false});
      handles.push_back(sim.schedule_at(
          t,
          [&sim, &churn, &next_id, t, id, follow_up] {
            churn.fired.emplace_back(t, id);
            if (!follow_up) return;
            const Time at = sim.now() + 0.25;
            const int next = next_id++;
            churn.records.push_back(Record{at, id % 4, next, false});
            sim.schedule_at(
                at, [&churn, at, next] { churn.fired.emplace_back(at, next); },
                static_cast<Priority>(id % 4));
          },
          static_cast<Priority>(prio)));
      handle_ids.push_back(id);
    }
    // Cancel ~25% of a wave's worth among everything still pending
    // (including earlier waves).
    for (int i = 0; i < kPerBatch / 4; ++i) {
      const std::size_t k = rng() % handles.size();
      if (handles[k].cancel()) {
        churn.records[static_cast<std::size_t>(handle_ids[k])].cancelled =
            true;
      }
    }
    sim.run_until(sim.now() + 1500.0);
  }
  sim.run();
  return churn;
}

void expect_contract_order(const Churn& churn) {
  std::vector<Record> expected;
  for (const Record& r : churn.records) {
    if (!r.cancelled) expected.push_back(r);
  }
  std::sort(expected.begin(), expected.end(),
            [](const Record& a, const Record& b) {
              return std::tie(a.time, a.priority, a.id) <
                     std::tie(b.time, b.priority, b.id);
            });
  ASSERT_EQ(churn.fired.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(churn.fired[i].second, expected[i].id) << "at dispatch " << i;
    ASSERT_EQ(churn.fired[i].first, expected[i].time) << "at dispatch " << i;
  }
}

TEST(CalendarQueue, RandomChurnDispatchesInContractOrder) {
  Simulation sim;
  for (std::uint32_t seed : {1u, 77u, 4242u}) {
    const Churn churn = run_churn(sim, seed);
    EXPECT_GT(churn.records.size(), 12u * 300u);  // follow-ups scheduled
    expect_contract_order(churn);
    EXPECT_EQ(sim.pending_events(), 0u);
    sim.reset();  // next seed reuses the slab and heap arrays
  }
}

TEST(CalendarQueue, IdenticalTimesAcrossSeasonsKeepInsertionOrder) {
  Simulation sim;
  std::vector<int> fired;
  // 500 events at each of two far-apart timestamps, every event at one
  // timestamp tied on time and priority, so dispatch order must fall back
  // to insertion sequence.
  for (int rep = 0; rep < 2; ++rep) {
    const Time t = 1000.0 + 1e6 * rep;
    for (int i = 0; i < 500; ++i) {
      const int id = rep * 500 + i;
      sim.schedule_at(t, [&fired, id] { fired.push_back(id); });
    }
  }
  sim.run();
  ASSERT_EQ(fired.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(CalendarQueue, CallbackInsertionsAtAndNearNowDispatchInPass) {
  Simulation sim;
  std::vector<int> fired;
  // Seed a far-future population, then have an event chain insert at the
  // current time and just after it — both run before the far population.
  for (int i = 0; i < 200; ++i) {
    sim.schedule_at(5e5 + i * 10.0, [&fired] { fired.push_back(-1); });
  }
  sim.schedule_at(100.0, [&sim, &fired] {
    fired.push_back(1);
    sim.schedule_at(sim.now(), [&sim, &fired] {
      fired.push_back(2);
      sim.schedule_in(0.5, [&fired] { fired.push_back(3); });
    });
  });
  sim.run_until(200.0);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 2);
  EXPECT_EQ(fired[2], 3);
  sim.run();
  EXPECT_EQ(fired.size(), 203u);
}

// Seeded churn under a tie-break policy that picks a random member of
// every group. The test keeps its own list of every scheduled event (its
// index is the kernel's insertion sequence) and checks each group the
// kernel offers, and each event that fires, against a brute-force scan of
// the live events at the minimal (time, priority).
class TieChurn final : public TieBreakPolicy {
 public:
  TieChurn(Simulation& sim, std::uint32_t seed) : sim_(sim), rng_(seed) {}

  std::size_t pick(const TieGroup& group) override {
    const std::vector<std::uint64_t> want = minimal_cohort();
    ++groups_;
    EXPECT_EQ(group.id + 1, sim_.tie_groups());
    EXPECT_EQ(group.size, want.size()) << "group " << group.id;
    if (group.size != want.size()) return 0;
    EXPECT_EQ(group.time, events_[want.front()].time);
    EXPECT_EQ(group.priority, events_[want.front()].priority);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(group.members[i].seq, want[i]) << "group " << group.id;
      EXPECT_EQ(group.members[i].tag, events_[want[i]].tag);
    }
    return rng_() % group.size;
  }

  void run() {
    for (int batch = 0; batch < 8; ++batch) {
      const Time base = sim_.now();
      for (int i = 0; i < 250; ++i) schedule_quantized(base);
      for (int i = 0; i < 80; ++i) cancel(rng_() % events_.size());
      // Cancel-and-reschedule churn, as CBF does with its wake-up: it
      // leaves more cancelled entries than live events, so the kernel
      // purges them and re-heapifies mid-run.
      for (int i = 0; i < 300; ++i) {
        cancel(events_.size() - 1);
        schedule_quantized(base);
      }
      sim_.run_until(base + 10.0);
    }
    sim_.run();
  }

  std::size_t scheduled() const { return events_.size(); }
  std::size_t fired() const { return fired_; }
  std::size_t cancelled() const { return cancelled_; }
  std::size_t groups() const { return groups_; }

 private:
  enum class State { kPending, kFired, kCancelled };
  struct Event {
    Time time;
    int priority;
    std::uint32_t tag;
    State state;
    Simulation::EventHandle handle;
  };

  void schedule(Time t, int prio) {
    const std::uint64_t seq = events_.size();
    const auto tag = static_cast<std::uint32_t>(rng_() % 5u);
    events_.push_back(Event{t, prio, tag, State::kPending, {}});
    Simulation::EventHandle h = sim_.schedule_at(
        t, [this, seq] { fire(seq); }, static_cast<Priority>(prio), tag);
    events_[seq].handle = h;
  }

  void schedule_quantized(Time base) {
    schedule(base + 0.5 * static_cast<Time>(rng_() % 40u),
             static_cast<int>(rng_() % 4u));
  }

  void cancel(std::size_t seq) {
    Event& e = events_[seq];
    if (e.state != State::kPending) return;
    EXPECT_TRUE(e.handle.cancel());
    e.state = State::kCancelled;
    ++cancelled_;
  }

  // Seqs of the live events at the minimal (time, priority), ascending.
  std::vector<std::uint64_t> minimal_cohort() const {
    std::vector<std::uint64_t> out;
    for (std::uint64_t seq = 0; seq < events_.size(); ++seq) {
      const Event& e = events_[seq];
      if (e.state != State::kPending) continue;
      if (!out.empty()) {
        const Event& m = events_[out.front()];
        if (std::tie(e.time, e.priority) > std::tie(m.time, m.priority)) {
          continue;
        }
        if (std::tie(e.time, e.priority) < std::tie(m.time, m.priority)) {
          out.clear();
        }
      }
      out.push_back(seq);
    }
    return out;
  }

  void fire(std::uint64_t seq) {
    const std::vector<std::uint64_t> want = minimal_cohort();
    EXPECT_NE(std::find(want.begin(), want.end(), seq), want.end())
        << "event " << seq << " fired outside the minimal cohort";
    EXPECT_EQ(sim_.now(), events_[seq].time);
    events_[seq].state = State::kFired;
    ++fired_;
    // Same-pass insertions: some join the open group, some open a new
    // group at this instant; some callbacks cancel a pending event,
    // possibly a member of the open group.
    const auto r = static_cast<std::uint32_t>(rng_() % 10u);
    if (r < 3) {
      schedule(sim_.now(), events_[seq].priority);
    } else if (r < 4) {
      schedule(sim_.now(), static_cast<int>(rng_() % 4u));
    }
    if (rng_() % 3u == 0) cancel(rng_() % events_.size());
  }

  Simulation& sim_;
  std::mt19937 rng_;
  std::vector<Event> events_;
  std::size_t fired_ = 0;
  std::size_t cancelled_ = 0;
  std::size_t groups_ = 0;
};

TEST(CalendarQueue, PolicyTieGroupsMatchBruteForceCohorts) {
  Simulation sim;
  for (std::uint32_t seed : {5u, 91u, 2026u}) {
    SCOPED_TRACE(seed);
    TieChurn churn(sim, seed);
    sim.set_tie_break_policy(&churn);
    churn.run();
    EXPECT_EQ(churn.fired() + churn.cancelled(), churn.scheduled());
    EXPECT_EQ(sim.pending_events(), 0u);
    EXPECT_GT(churn.groups(), 200u);  // multi-member groups offered
    sim.reset();  // uninstalls the policy; the next seed reuses the heap
  }
}

TEST(CalendarQueue, RescheduleIsCancelThenScheduleInTheSameSlot) {
  Simulation sim;
  std::vector<int> fired;
  sim.schedule_at(4.0, [&fired] { fired.push_back(1); });
  Simulation::EventHandle h =
      sim.schedule_at(2.0, [&fired] { fired.push_back(2); });
  const Simulation::EventHandle copy = h;
  sim.schedule_at(6.0, [&fired] { fired.push_back(3); });
  const std::size_t slots = sim.pool_capacity();

  ASSERT_TRUE(h.reschedule(5.0));  // later: after 1, before 3
  EXPECT_TRUE(h.pending());
  EXPECT_FALSE(copy.pending());  // as if the event had been cancelled
  ASSERT_TRUE(h.reschedule(5.0));  // the same time again
  EXPECT_EQ(sim.scheduled(), 5u);
  EXPECT_EQ(sim.cancelled(), 2u);
  EXPECT_EQ(sim.heap_pushes(), 3u);  // neither move was earlier
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.pool_capacity(), slots);

  sim.run_until(4.5);  // the entry left at 2.0 sinks to 5.0; 1 fires
  EXPECT_EQ(fired, (std::vector<int>{1}));
  // A time in the past throws and changes nothing.
  EXPECT_THROW(h.reschedule(4.0), std::invalid_argument);
  EXPECT_THROW(h.reschedule(std::numeric_limits<Time>::infinity()),
               std::invalid_argument);
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(sim.scheduled(), 5u);
  EXPECT_EQ(sim.cancelled(), 2u);

  ASSERT_TRUE(h.reschedule(4.75));  // earlier: a fresh heap entry
  EXPECT_EQ(sim.heap_pushes(), 4u);
  EXPECT_EQ(sim.next_event_time(), 4.75);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.dispatched(), 3u);
  // Fired, cancelled and inert handles do not move.
  EXPECT_FALSE(h.reschedule(10.0));
  EXPECT_FALSE(Simulation::EventHandle().reschedule(10.0));
  Simulation::EventHandle gone = sim.schedule_at(20.0, [] {});
  ASSERT_TRUE(gone.cancel());
  EXPECT_FALSE(gone.reschedule(30.0));
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Records every group the kernel offers and picks a seeded member, so two
// simulations offered the same groups make the same picks.
class RecordingPolicy final : public TieBreakPolicy {
 public:
  struct Group {
    Time time;
    int priority;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> members;  // seq, tag
    bool operator==(const Group&) const = default;
  };

  explicit RecordingPolicy(std::uint32_t seed) : rng_(seed) {}

  std::size_t pick(const TieGroup& group) override {
    Group g{group.time, group.priority, {}};
    for (std::size_t i = 0; i < group.size; ++i) {
      g.members.emplace_back(group.members[i].seq, group.members[i].tag);
    }
    groups_.push_back(std::move(g));
    return rng_() % group.size;
  }

  const std::vector<Group>& groups() const { return groups_; }

 private:
  std::mt19937 rng_;
  std::vector<Group> groups_;
};

// One seeded script of schedules, cancels and moves over quantized (tied)
// timestamps, with moves earlier, later, to the same time and onto the
// tie grid, between run_until windows and from inside callbacks. A move
// is EventHandle::reschedule, or, on the twin, the cancel() + schedule_at()
// pair with the same callback, priority and tag. Both twins draw the same
// numbers as long as the kernel treats the two spellings alike; the
// first divergence shows in the dispatch trace.
class MoveScript {
 public:
  MoveScript(Simulation& sim, std::uint32_t seed, bool reschedule)
      : sim_(sim), rng_(seed), reschedule_(reschedule) {}

  void run() {
    for (int batch = 0; batch < 10; ++batch) {
      const Time base = sim_.now();
      for (int i = 0; i < 200; ++i) {
        schedule(quantized(base), static_cast<Priority>(rng_() % 4u));
      }
      for (int i = 0; i < 40; ++i) cancel(rng_() % events_.size());
      // A wake-up moved on every pass at one instant, mostly to the time
      // it already has, as CBF's dispatch_ready does.
      const std::size_t wakeup = events_.size() - 1;
      for (int i = 0; i < 100; ++i) {
        move(wakeup, rng_() % 4u == 0 ? quantized(base) : time_of(wakeup));
      }
      for (int i = 0; i < 150; ++i) move_random();
      sim_.run_until(base + 8.0);
    }
    sim_.run();
  }

  const std::vector<std::pair<Time, int>>& fired() const { return fired_; }

 private:
  struct Event {
    Time time;
    Priority prio;
    std::uint32_t tag;
    Simulation::EventHandle handle;
  };

  Time quantized(Time base) {
    return base + 0.5 * static_cast<Time>(rng_() % 40u);
  }

  Time time_of(std::size_t k) const { return events_[k].time; }

  Simulation::Callback callback_for(int id) {
    return [this, id] { fire(id); };
  }

  void schedule(Time t, Priority prio) {
    const int id = static_cast<int>(events_.size());
    const auto tag = static_cast<std::uint32_t>(rng_() % 5u);
    events_.push_back(Event{t, prio, tag, {}});
    events_.back().handle = sim_.schedule_at(t, callback_for(id), prio, tag);
  }

  void cancel(std::size_t k) { events_[k].handle.cancel(); }

  void move(std::size_t k, Time t) {
    Event& e = events_[k];
    if (!e.handle.pending()) return;
    e.time = t;
    if (reschedule_) {
      EXPECT_TRUE(e.handle.reschedule(t));
    } else {
      e.handle.cancel();
      e.handle =
          sim_.schedule_at(t, callback_for(static_cast<int>(k)), e.prio, e.tag);
    }
  }

  // Earlier (down to now), later, the same time, or onto the tie grid.
  void move_random() {
    const std::size_t k = rng_() % events_.size();
    const Time now = sim_.now();
    const Time old = events_[k].time;
    switch (rng_() % 4u) {
      case 0:
        move(k, now + (old - now) * static_cast<Time>(rng_() % 4u) / 4.0);
        break;
      case 1:
        move(k, old + 0.5 * static_cast<Time>(1 + rng_() % 20u));
        break;
      case 2:
        move(k, old);
        break;
      default:
        move(k, quantized(now));
        break;
    }
  }

  void fire(int id) {
    fired_.emplace_back(sim_.now(), id);
    EXPECT_EQ(sim_.now(), events_[static_cast<std::size_t>(id)].time);
    const auto r = rng_() % 10u;
    if (r < 3) {
      move_random();  // from inside a callback
    } else if (r < 4) {
      schedule(sim_.now(), static_cast<Priority>(rng_() % 4u));
    } else if (r < 5) {
      cancel(rng_() % events_.size());
    }
  }

  Simulation& sim_;
  std::mt19937 rng_;
  bool reschedule_;
  std::vector<Event> events_;
  std::vector<std::pair<Time, int>> fired_;
};

void expect_twins_match(const Simulation& moved, const Simulation& twin) {
  EXPECT_EQ(moved.scheduled(), twin.scheduled());
  EXPECT_EQ(moved.cancelled(), twin.cancelled());
  EXPECT_EQ(moved.dispatched(), twin.dispatched());
  EXPECT_EQ(moved.pending_events(), 0u);
  EXPECT_EQ(twin.pending_events(), 0u);
  // The twin pushes one entry per scheduled event; reschedule fewer.
  EXPECT_EQ(twin.heap_pushes(), twin.scheduled());
  EXPECT_LT(moved.heap_pushes(), twin.heap_pushes());
}

TEST(CalendarQueue, RescheduleMatchesCancelThenScheduleTwin) {
  Simulation moved;
  Simulation twin;
  for (std::uint32_t seed : {3u, 58u, 9001u}) {
    SCOPED_TRACE(seed);
    MoveScript a(moved, seed, true);
    MoveScript b(twin, seed, false);
    a.run();
    b.run();
    EXPECT_GT(a.fired().size(), 1500u);
    ASSERT_EQ(a.fired(), b.fired());
    expect_twins_match(moved, twin);
    moved.reset();
    twin.reset();
  }
}

TEST(CalendarQueue, RescheduleOffersTheTwinsTieGroups) {
  Simulation moved;
  Simulation twin;
  for (std::uint32_t seed : {12u, 404u}) {
    SCOPED_TRACE(seed);
    RecordingPolicy pa(seed);
    RecordingPolicy pb(seed);
    moved.set_tie_break_policy(&pa);
    twin.set_tie_break_policy(&pb);
    MoveScript a(moved, seed, true);
    MoveScript b(twin, seed, false);
    a.run();
    b.run();
    ASSERT_EQ(a.fired(), b.fired());
    EXPECT_GT(pa.groups().size(), 200u);
    ASSERT_EQ(pa.groups().size(), pb.groups().size());
    for (std::size_t i = 0; i < pa.groups().size(); ++i) {
      ASSERT_EQ(pa.groups()[i], pb.groups()[i]) << "group " << i;
    }
    EXPECT_EQ(moved.tie_groups(), twin.tie_groups());
    expect_twins_match(moved, twin);
    moved.reset();
    twin.reset();
  }
}

}  // namespace

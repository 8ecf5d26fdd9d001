// Randomized churn tests pinning the event queue to the kernel's
// documented contract: events fire in (time, priority, insertion-sequence)
// order, cancellations never fire, and this holds across wide and tied
// timestamps, mid-run insertions, purges of cancelled entries and heap
// re-use after reset. Under a tie-break policy, every group the kernel
// offers lists exactly the live events at the minimal (time, priority).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <tuple>
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

}  // namespace

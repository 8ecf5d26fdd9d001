// Oracle tests for the indexed pending queue behind EASY and FCFS. Both
// schedulers must behave exactly — event for event, double for double —
// like the implementations that kept their queue in a std::deque<Job>,
// found a cancelled job by linear scan and erased it from the middle.
// Verbatim replicas of those two schedulers (DequeEasy and DequeFcfs
// below) replay the same seeded scripts side by side with the current
// schedulers, and the two sides are compared after every dispatched event.
// A direct test drives PendingQueue itself against a vector model through
// many compactions.
#include "rrsim/sched/pending_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rrsim/sched/easy.h"
#include "rrsim/sched/fcfs.h"
#include "rrsim/util/rng.h"

namespace rrsim::sched {
namespace {

// --- Verbatim replicas of the deque-backed EASY and FCFS -----------------

class DequeEasy final : public ClusterScheduler {
 public:
  DequeEasy(des::Simulation& sim, int total_nodes)
      : ClusterScheduler(sim, total_nodes) {}

  std::string name() const override { return "easy-deque"; }
  std::size_t queue_length() const override { return queue_.size(); }

  std::optional<Time> head_shadow_time() const {
    if (queue_.empty()) return std::nullopt;
    if (queue_.front().nodes <= free_nodes()) return sim_.now();
    return compute_shadow().time;
  }

 protected:
  void handle_submit(Job job) override {
    queue_.push_back(std::move(job));
    schedule_pass();
  }

  Job handle_cancel(JobId id) override {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->id == id) {
        Job job = *it;
        queue_.erase(it);
        schedule_pass();  // cancellation opens backfill opportunities
        return job;
      }
    }
    throw std::logic_error("easy: cancel of non-pending job");
  }

  void handle_completion(const Job& job) override {
    const std::pair<Time, int> key{job.start_time + job.requested_time,
                                   job.nodes};
    const auto it =
        std::lower_bound(running_ends_.begin(), running_ends_.end(), key);
    if (it == running_ends_.end() || *it != key) {
      throw std::logic_error("easy: finished job missing from running_ends_");
    }
    running_ends_.erase(it);  // erase one instance, not all duplicates
    schedule_pass();
  }

 private:
  struct Shadow {
    Time time = 0.0;
    int extra = 0;
  };

  Shadow compute_shadow() const {
    const Job& head = queue_.front();
    int avail = free_nodes();
    for (const auto& [end, nodes] : running_ends_) {
      avail += nodes;
      if (avail >= head.nodes) {
        return Shadow{end, avail - head.nodes};
      }
    }
    throw std::logic_error("easy: shadow not found for non-fitting head");
  }

  bool start_and_track(Job job) {
    const Time end = sim_.now() + job.requested_time;
    const int nodes = job.nodes;
    if (!try_start(std::move(job))) return false;
    const std::pair<Time, int> key{end, nodes};
    running_ends_.insert(
        std::upper_bound(running_ends_.begin(), running_ends_.end(), key),
        key);
    return true;
  }

  void schedule_pass() {
    count_pass();
    for (;;) {
      // Phase 1: strict FCFS starts from the head.
      while (!queue_.empty() && queue_.front().nodes <= free_nodes()) {
        Job job = std::move(queue_.front());
        queue_.pop_front();
        start_and_track(std::move(job));
      }
      if (queue_.empty()) return;

      // Phase 2: backfill behind the (non-fitting) head under the one-
      // reservation rule.
      Shadow shadow = compute_shadow();
      const Time now = sim_.now();
      bool queue_changed = false;  // a decline invalidates iterators/shadow
      for (auto it = std::next(queue_.begin());
           it != queue_.end() && free_nodes() > 0;) {
        const bool fits_now = it->nodes <= free_nodes();
        const bool ends_before_shadow =
            now + it->requested_time <= shadow.time;
        const bool within_extra = it->nodes <= shadow.extra;
        if (fits_now && (ends_before_shadow || within_extra)) {
          Job job = *it;
          it = queue_.erase(it);
          if (!ends_before_shadow) shadow.extra -= job.nodes;
          if (!start_and_track(std::move(job))) {
            queue_changed = true;
            break;
          }
        } else {
          ++it;
        }
      }
      if (!queue_changed) return;
    }
  }

  std::deque<Job> queue_;
  std::vector<std::pair<Time, int>> running_ends_;
};

class DequeFcfs final : public ClusterScheduler {
 public:
  DequeFcfs(des::Simulation& sim, int total_nodes)
      : ClusterScheduler(sim, total_nodes) {}

  std::string name() const override { return "fcfs-deque"; }
  std::size_t queue_length() const override { return queue_.size(); }

 protected:
  void handle_submit(Job job) override {
    queue_.push_back(std::move(job));
    schedule_pass();
  }

  Job handle_cancel(JobId id) override {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->id == id) {
        Job job = *it;
        queue_.erase(it);
        schedule_pass();  // removing the head may unblock successors
        return job;
      }
    }
    throw std::logic_error("fcfs: cancel of non-pending job");
  }

  void handle_completion(const Job&) override { schedule_pass(); }

 private:
  void schedule_pass() {
    count_pass();
    while (!queue_.empty() && queue_.front().nodes <= free_nodes()) {
      Job job = std::move(queue_.front());
      queue_.pop_front();
      try_start(std::move(job));  // declined jobs simply leave the queue
    }
  }

  std::deque<Job> queue_;
};

// --- Seeded scripts -------------------------------------------------------

enum class Kind {
  kSubmit,
  kCancelId,        // a fixed id: the job's own (a losing replica) or unknown
  kCancelHead,      // the first pending job
  kCancelTail,      // the last pending job
  kCancelMid,       // a pending job at a drawn position
  kCancelRunning,   // a running job: cancel() must answer false
  kCancelFinished,  // a finished job: cancel() must answer false
};

struct Action {
  Time at = 0.0;
  Kind kind = Kind::kSubmit;
  Job job;        // kSubmit
  JobId id = 0;   // kCancelId
  double u = 0.0;  // position draw for the picked cancels
};

struct ScriptParams {
  std::uint64_t seed = 1;
  int nodes = 32;
  int jobs = 600;
  int max_gap = 3;           ///< integer inter-arrival gap in [0, max_gap] s
  double own_cancel = 0.5;   ///< chance a job is cancelled later by id
  double picked_cancel = 0.2;  ///< chance of one picked cancel per submit
  double decline = 0.1;      ///< chance the grant callback refuses a job
  int user_limit = 0;        ///< per-user pending limit; 0 = none
};

struct Script {
  std::vector<Action> actions;
  std::vector<bool> declined;  // by job id
};

Script make_script(const ScriptParams& p) {
  util::Rng rng(p.seed);
  Script script;
  script.declined.assign(static_cast<std::size_t>(p.jobs) + 1, false);
  double t = 0.0;
  for (JobId id = 1; id <= static_cast<JobId>(p.jobs); ++id) {
    // Integer submit times and requested times: same-instant ties, and
    // backfill candidates that end exactly at the shadow time.
    t += static_cast<double>(rng.between(0, p.max_gap));
    Job job;
    job.id = id;
    job.nodes = rng.chance(0.3)
                    ? static_cast<int>(rng.between(p.nodes / 2, p.nodes))
                    : static_cast<int>(rng.between(1, p.nodes / 4));
    job.requested_time = 10.0 * static_cast<double>(rng.between(1, 60));
    // Early completions, some at integer times and some not.
    if (rng.chance(0.3)) {
      job.actual_time = job.requested_time;
    } else if (rng.chance(0.5)) {
      job.actual_time = job.requested_time - 5.0;
    } else {
      job.actual_time = job.requested_time * rng.uniform(0.1, 0.9);
    }
    job.user = static_cast<UserId>(rng.between(0, 3));
    job.limit_exempt = rng.chance(0.2);
    script.declined[id] = rng.chance(p.decline);
    script.actions.push_back(Action{t, Kind::kSubmit, job, 0, 0.0});
    if (rng.chance(p.own_cancel)) {
      const double at = t + static_cast<double>(rng.between(0, 30));
      script.actions.push_back(Action{at, Kind::kCancelId, Job{}, id, 0.0});
    }
    if (rng.chance(p.picked_cancel)) {
      const double at = t + static_cast<double>(rng.between(0, 5));
      Action a{at, Kind::kCancelMid, Job{}, 0, rng.uniform01()};
      switch (rng.between(0, 5)) {
        case 0: a.kind = Kind::kCancelHead; break;
        case 1: a.kind = Kind::kCancelTail; break;
        case 2: a.kind = Kind::kCancelRunning; break;
        case 3: a.kind = Kind::kCancelFinished; break;
        case 4:  // an id never submitted, or a later job's (maybe queued)
          a.kind = Kind::kCancelId;
          a.id = rng.chance(0.5) ? 0 : id + static_cast<JobId>(
                                                rng.between(1, 40));
          break;
        default: break;  // kCancelMid
      }
      script.actions.push_back(a);
    }
  }
  return script;
}

// --- One scheduler replaying a script --------------------------------------

struct Event {
  char kind;  // 'S' submit, 'x' cancel() call, 's' start, 'f' finish,
              // 'c' cancelled, 'd' declined
  JobId id;
  Time time;
  bool value;  // submit() / cancel() result
  bool operator==(const Event&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Event& e) {
  return os << e.kind << ' ' << e.id << " @" << e.time << " -> " << e.value;
}

template <typename Sched>
struct Side {
  Side(const ScriptParams& p, const Script& script) : sched(sim, p.nodes) {
    if (p.user_limit > 0) sched.set_per_user_pending_limit(p.user_limit);
    ClusterScheduler::Callbacks cb;
    cb.on_grant = [this, &script](const Job& j) {
      pending.erase(j.id);  // it starts or is declined: either way it leaves
      if (!script.declined[j.id]) return true;
      log.push_back(Event{'d', j.id, sim.now(), false});
      return false;
    };
    cb.on_start = [this](const Job& j) {
      log.push_back(Event{'s', j.id, j.start_time, true});
      running.insert(j.id);
    };
    cb.on_finish = [this](const Job& j) {
      log.push_back(Event{'f', j.id, j.finish_time, true});
      running.erase(j.id);
      finished.push_back(j.id);
    };
    cb.on_cancelled = [this](const Job& j) {
      log.push_back(Event{'c', j.id, sim.now(), true});
      pending.erase(j.id);
    };
    sched.set_callbacks(std::move(cb));
    for (const Action& a : script.actions) {
      sim.schedule_at(
          a.at, [this, &a] { apply(a); },
          a.kind == Kind::kSubmit ? des::Priority::kArrival
                                  : des::Priority::kCancel);
    }
  }

  Side(const Side&) = delete;
  Side& operator=(const Side&) = delete;

  void apply(const Action& a) {
    if (a.kind == Kind::kSubmit) {
      // Queued before submit(): the pass inside it may start or decline
      // the job at once.
      pending.insert(a.job.id);
      const bool accepted = sched.submit(a.job);
      if (!accepted) pending.erase(a.job.id);
      log.push_back(Event{'S', a.job.id, sim.now(), accepted});
      peak_queue = std::max(peak_queue, sched.queue_length());
      return;
    }
    const JobId id = target(a);
    const bool removed = sched.cancel(id);
    log.push_back(Event{'x', id, sim.now(), removed});
    if (removed) ++removed_by[static_cast<int>(a.kind)];
  }

  // The id a cancel action names. Both sides are equal before every
  // event, so each may pick from its own state.
  JobId target(const Action& a) const {
    const auto pick = [&a](std::size_t n) {
      return std::min(n - 1, static_cast<std::size_t>(
                                 a.u * static_cast<double>(n)));
    };
    switch (a.kind) {
      case Kind::kCancelId:
        return a.id;
      case Kind::kCancelHead:
      case Kind::kCancelTail:
      case Kind::kCancelMid:
        if (pending.empty()) return 0;
        if (a.kind == Kind::kCancelHead) return *pending.begin();
        if (a.kind == Kind::kCancelTail) return *pending.rbegin();
        return *std::next(pending.begin(),
                          static_cast<std::ptrdiff_t>(pick(pending.size())));
      case Kind::kCancelRunning:
        if (running.empty()) return 0;
        return *std::next(running.begin(),
                          static_cast<std::ptrdiff_t>(pick(running.size())));
      case Kind::kCancelFinished:
        if (finished.empty()) return 0;
        return finished[pick(finished.size())];
      case Kind::kSubmit:
        break;
    }
    return 0;
  }

  des::Simulation sim;
  Sched sched;
  std::vector<Event> log;
  /// The queue as the callbacks saw it. Scripts submit ids in ascending
  /// order, so the set's order is FCFS order.
  std::set<JobId> pending;
  std::set<JobId> running;
  std::vector<JobId> finished;
  std::size_t peak_queue = 0;
  std::uint64_t removed_by[7] = {};  // successful cancels by Kind
};

template <typename A, typename B>
testing::AssertionResult same_state(const Side<A>& ref, const Side<B>& sub,
                                    std::size_t& logged) {
  if (ref.log.size() != sub.log.size()) {
    return testing::AssertionFailure()
           << "event log length " << ref.log.size() << " vs "
           << sub.log.size();
  }
  for (; logged < ref.log.size(); ++logged) {
    if (!(ref.log[logged] == sub.log[logged])) {
      return testing::AssertionFailure()
             << "event " << logged << ": " << ref.log[logged] << " vs "
             << sub.log[logged];
    }
  }
  const OpCounters& a = ref.sched.counters();
  const OpCounters& b = sub.sched.counters();
  if (a.submits != b.submits || a.rejects != b.rejects ||
      a.cancels != b.cancels || a.starts != b.starts ||
      a.finishes != b.finishes || a.declines != b.declines ||
      a.sched_passes != b.sched_passes) {
    return testing::AssertionFailure() << "OpCounters differ";
  }
  if (ref.sched.queue_length() != sub.sched.queue_length()) {
    return testing::AssertionFailure()
           << "queue_length " << ref.sched.queue_length() << " vs "
           << sub.sched.queue_length();
  }
  if constexpr (requires { sub.sched.head_shadow_time(); }) {
    if (ref.sched.head_shadow_time() != sub.sched.head_shadow_time()) {
      return testing::AssertionFailure() << "head_shadow_time differs";
    }
  }
  return testing::AssertionSuccess();
}

struct ReplayStats {
  std::size_t peak_queue = 0;
  OpCounters ops;
  std::uint64_t removed_by[7] = {};
  std::uint64_t false_cancels = 0;
};

/// Replays `p`'s script through the deque replica and the current
/// scheduler in lockstep, one dispatched event at a time, and compares
/// them after each.
template <typename Replica, typename Subject>
ReplayStats replay_side_by_side(const ScriptParams& p) {
  const Script script = make_script(p);
  Side<Replica> ref(p, script);
  Side<Subject> sub(p, script);
  std::size_t logged = 0;
  for (std::size_t step = 1;; ++step) {
    const bool a = ref.sim.step();
    const bool b = sub.sim.step();
    EXPECT_EQ(a, b) << "seed=" << p.seed << " step=" << step;
    if (!a || !b) break;
    const testing::AssertionResult same = same_state(ref, sub, logged);
    if (!same) {
      ADD_FAILURE() << "seed=" << p.seed << " step=" << step << " t="
                    << ref.sim.now() << ": " << same.message();
      break;
    }
  }
  ReplayStats stats;
  stats.peak_queue = sub.peak_queue;
  stats.ops = sub.sched.counters();
  std::copy(std::begin(sub.removed_by), std::end(sub.removed_by),
            std::begin(stats.removed_by));
  for (const Event& e : sub.log) {
    if (e.kind == 'x' && !e.value) ++stats.false_cancels;
  }
  return stats;
}

/// The script exercised what the oracle exists to check.
void expect_coverage(const ReplayStats& s, const ScriptParams& p) {
  EXPECT_GT(s.removed_by[static_cast<int>(Kind::kCancelHead)], 0u);
  EXPECT_GT(s.removed_by[static_cast<int>(Kind::kCancelTail)], 0u);
  EXPECT_GT(s.removed_by[static_cast<int>(Kind::kCancelMid)], 0u);
  EXPECT_GT(s.removed_by[static_cast<int>(Kind::kCancelId)], 0u);
  EXPECT_GT(s.false_cancels, 0u);  // running, finished and unknown ids
  EXPECT_GT(s.ops.declines, 0u);
  EXPECT_GT(s.ops.finishes, 0u);
  if (p.user_limit > 0) {
    EXPECT_GT(s.ops.rejects, 0u);
  }
}

std::vector<ScriptParams> shallow_scripts() {
  std::vector<ScriptParams> out;
  for (const std::uint64_t seed : {3u, 17u, 101u, 2024u}) {
    ScriptParams p;
    p.seed = seed;
    // Every other script caps each user's pending replicas.
    p.user_limit = seed % 2 == 1 ? 6 : 0;
    out.push_back(p);
  }
  return out;
}

// Deep scripts: arrivals far outpace the cluster, so the queue grows past
// 2 000 pending while cancels keep tombstoning slots and every submit may
// compact.
std::vector<ScriptParams> deep_scripts() {
  std::vector<ScriptParams> out;
  for (const std::uint64_t seed : {7u, 4242u}) {
    ScriptParams p;
    p.seed = seed;
    p.jobs = 7000;
    p.max_gap = 1;
    out.push_back(p);
  }
  return out;
}

TEST(PendingQueueOracle, EasyMatchesTheDequeReplica) {
  for (const ScriptParams& p : shallow_scripts()) {
    const ReplayStats s = replay_side_by_side<DequeEasy, EasyScheduler>(p);
    expect_coverage(s, p);
  }
}

TEST(PendingQueueOracle, FcfsMatchesTheDequeReplica) {
  for (const ScriptParams& p : shallow_scripts()) {
    const ReplayStats s = replay_side_by_side<DequeFcfs, FcfsScheduler>(p);
    expect_coverage(s, p);
  }
}

TEST(PendingQueueOracle, DeepEasyQueuesMatchTheDequeReplica) {
  for (const ScriptParams& p : deep_scripts()) {
    const ReplayStats s = replay_side_by_side<DequeEasy, EasyScheduler>(p);
    expect_coverage(s, p);
    EXPECT_GE(s.peak_queue, 2000u) << "seed=" << p.seed;
  }
}

TEST(PendingQueueOracle, DeepFcfsQueuesMatchTheDequeReplica) {
  for (const ScriptParams& p : deep_scripts()) {
    const ReplayStats s = replay_side_by_side<DequeFcfs, FcfsScheduler>(p);
    expect_coverage(s, p);
    EXPECT_GE(s.peak_queue, 2000u) << "seed=" << p.seed;
  }
}

// --- PendingQueue against a vector model -----------------------------------

TEST(PendingQueue, MatchesAVectorModelThroughCompactions) {
  PendingQueue q;
  std::vector<Job> model;  // live jobs in queue order
  util::Rng rng(99);
  JobId next_id = 1;
  std::size_t compactions = 0;
  for (int op = 0; op < 40000; ++op) {
    // Alternate growing and draining phases, so the queue swings between
    // empty and a few thousand jobs deep.
    const std::uint64_t push_tenths = (op / 4000) % 2 == 0 ? 7 : 3;
    const std::uint64_t roll = rng.below(10);
    if (model.empty() || roll < push_tenths) {
      Job job;
      job.id = next_id++;
      job.nodes = static_cast<int>(rng.between(1, 16));
      const PendingQueue::Slot before = q.end();
      q.push_back(job);
      if (q.end() <= before) ++compactions;
      model.push_back(job);
    } else if (roll < push_tenths + 1) {  // the head, as a pass takes it
      ASSERT_EQ(q.job(q.head()).id, model.front().id);
      EXPECT_EQ(q.take(q.head()).id, model.front().id);
      model.erase(model.begin());
    } else {  // any job by id, as a cancel takes it
      const auto k = static_cast<std::ptrdiff_t>(rng.below(model.size()));
      const JobId id = model[static_cast<std::size_t>(k)].id;
      EXPECT_EQ(q.take(q.slot_of(id)).id, id);
      model.erase(model.begin() + k);
    }
    ASSERT_EQ(q.size(), model.size());
    ASSERT_EQ(q.empty(), model.empty());
    if (model.empty()) {
      ASSERT_EQ(q.head(), q.end());
      continue;
    }
    ASSERT_EQ(q.job(q.head()).id, model.front().id);
    if (op % 97 == 0) {
      std::vector<JobId> want;
      want.reserve(model.size());
      for (const Job& j : model) want.push_back(j.id);
      std::vector<JobId> live;
      for (PendingQueue::Slot s = q.head(); s < q.end(); ++s) {
        if (q.nodes(s) != PendingQueue::kTombstone) live.push_back(q.job(s).id);
      }
      ASSERT_EQ(live, want) << "op=" << op;
      // next_fitting visits exactly the model's fitting jobs, in order.
      const int free = static_cast<int>(rng.between(1, 16));
      std::vector<JobId> fit_got;
      for (PendingQueue::Slot s = q.next_fitting(q.head(), free);
           s != q.end(); s = q.next_fitting(s + 1, free)) {
        fit_got.push_back(q.job(s).id);
      }
      std::vector<JobId> fit_want;
      for (const Job& j : model) {
        if (j.nodes <= free) fit_want.push_back(j.id);
      }
      ASSERT_EQ(fit_got, fit_want) << "op=" << op;
    }
  }
  EXPECT_GT(compactions, 100u);
  EXPECT_THROW(q.slot_of(next_id), std::logic_error);
}

TEST(PendingQueue, SlotsStayValidUntilTheNextPush) {
  PendingQueue q;
  for (JobId id = 1; id <= 6; ++id) {
    Job job;
    job.id = id;
    job.nodes = static_cast<int>(id);
    q.push_back(job);
  }
  // Take every job but the last, head first, holding slot numbers the
  // whole time: removals tombstone, they never move a live job.
  const PendingQueue::Slot last = q.slot_of(6);
  for (JobId id = 1; id <= 5; ++id) q.take(q.slot_of(id));
  EXPECT_EQ(q.head(), last);
  EXPECT_EQ(q.nodes(1), PendingQueue::kTombstone);
  EXPECT_EQ(q.next_fitting(0, 6), last);
  // Five tombstones outnumber half of one live job: the next push
  // compacts, moving job 6 to slot 0 behind no tombstone.
  Job job;
  job.id = 7;
  q.push_back(job);
  EXPECT_EQ(q.end(), 2u);
  EXPECT_EQ(q.slot_of(6), 0u);
  EXPECT_EQ(q.slot_of(7), 1u);
  // An emptied queue drops back to zero slots on the next push.
  q.take(q.slot_of(6));
  q.take(q.slot_of(7));
  EXPECT_EQ(q.head(), q.end());
  q.push_back(job);
  EXPECT_EQ(q.end(), 1u);
  EXPECT_EQ(q.slot_of(7), 0u);
}

}  // namespace
}  // namespace rrsim::sched

// Oracle tests for the incremental CBF core: the scheduler must behave
// exactly — event for event, double for double — like the historical
// implementation that rebuilt its availability profile from scratch on
// every cancel, early completion, and decline. A verbatim replica of that
// implementation (LegacyCbf below) runs the same randomized workloads and
// the two traces are compared bit-exactly. Independently, the scheduler's
// own self-check mode re-derives every reservation from a from-scratch
// rebuild after each compression and counts mismatches.
#include "rrsim/sched/cbf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <type_traits>
#include <vector>

#include "rrsim/sched/profile.h"
#include "rrsim/util/rng.h"

namespace rrsim::sched {
namespace {

// --- Verbatim replica of the pre-incremental CBF ------------------------
// Rebuilds the profile from scratch on every queue change, scans the
// queue linearly in dispatch, and computes wake-ups with an O(Q) sweep.
class LegacyCbf final : public ClusterScheduler {
 public:
  LegacyCbf(des::Simulation& sim, int total_nodes)
      : ClusterScheduler(sim, total_nodes), profile_(total_nodes) {}

  std::string name() const override { return "cbf-legacy"; }
  std::size_t queue_length() const override { return queue_.size(); }

 protected:
  void handle_submit(Job job) override {
    const Time now = sim_.now();
    const Time s = profile_.earliest_start(now, job.nodes, job.requested_time);
    profile_.reserve(s, job.requested_time, job.nodes);
    report_prediction(job, s);
    queue_.push_back(Entry{std::move(job), s});
    dispatch_ready();
  }

  std::optional<Job> handle_cancel(JobId id) override {
    const auto it = find(id);
    if (it == queue_.end()) return std::nullopt;
    Job job = it->job;
    queue_.erase(it);
    rebuild_profile();
    dispatch_ready();
    return job;
  }

  void handle_completion(const Job& job) override {
    const bool early = job.finish_time() < job.start_time + job.requested_time;
    if (early) rebuild_profile();
    dispatch_ready();
  }

  bool queued(JobId id) const override { return find(id) != queue_.end(); }

 private:
  struct Entry {
    Job job;
    Time reserved_start = 0.0;
  };

  std::vector<Entry>::const_iterator find(JobId id) const {
    return std::find_if(queue_.begin(), queue_.end(),
                        [id](const Entry& e) { return e.job.id == id; });
  }

  void rebuild_profile() {
    count_pass();
    const Time now = sim_.now();
    profile_ = Profile(total_nodes());
    for (const auto& [id, job] : running_jobs()) {
      const Time end = job.start_time + job.requested_time;
      if (end > now) profile_.reserve(now, end - now, job.nodes);
    }
    for (Entry& e : queue_) {
      e.reserved_start =
          profile_.earliest_start(now, e.job.nodes, e.job.requested_time);
      profile_.reserve(e.reserved_start, e.job.requested_time, e.job.nodes);
    }
  }

  void dispatch_ready() {
    count_pass();
    const Time now = sim_.now();
    bool again = true;
    while (again) {
      again = false;
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->reserved_start > now) continue;
        if (it->job.nodes > free_nodes()) continue;
        Job job = it->job;
        queue_.erase(it);
        if (!try_start(std::move(job))) rebuild_profile();
        again = true;
        break;
      }
    }
    wakeup_.cancel();
    Time next = des::kTimeInfinity;
    for (const Entry& e : queue_) {
      if (e.reserved_start > now) next = std::min(next, e.reserved_start);
    }
    if (next < des::kTimeInfinity) {
      wakeup_ = sim_.schedule_at(
          next, [this] { dispatch_ready(); }, des::Priority::kControl);
    }
  }

  std::vector<Entry> queue_;
  Profile profile_;
  des::Simulation::EventHandle wakeup_;
};

// --- Randomized workload driver -----------------------------------------

struct Trace {
  // (kind, id, time): kind is 's'tart, 'f'inish, 'c'ancel.
  std::vector<std::tuple<char, JobId, Time>> events;
  std::map<JobId, Time> predictions;
  OpCounters counters;
  std::uint64_t fallbacks = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t cancels_issued = 0;
  std::size_t peak_queue = 0;
};

struct WorkloadParams {
  std::uint64_t seed = 1;
  int nodes = 24;
  int jobs = 250;
  double cancel_fraction = 0.5;
  bool declines = true;
  /// Integer submit gaps in [0, 3] s and integer requested, actual and
  /// cancel times: same-instant arrivals, simultaneous completions, and
  /// due jobs that wait for a same-timestamp completion's nodes.
  bool ties = false;
  /// micro_sched's cancel storm instead: a submission every 0.5-3 s of
  /// 1-8 nodes running exactly its 300-3600 s request, cancel_fraction of
  /// them cancelled 2-90 s after submit, so cancels hit the tail of a
  /// queue hundreds deep.
  bool storm = false;
  bool self_check = false;  ///< CbfScheduler only
};

template <typename Scheduler>
Trace run_workload(const WorkloadParams& wp) {
  des::Simulation sim;
  Scheduler sched(sim, wp.nodes);
  if constexpr (std::is_same_v<Scheduler, CbfScheduler>) {
    sched.set_self_check(wp.self_check);
  }
  Trace trace;

  ClusterScheduler::Callbacks cb;
  cb.on_grant = [&](const Job& j) {
    return !(wp.declines && j.id % 11 == 3);  // deterministic declines
  };
  cb.on_prediction = [&trace](const Job& j, Time start) {
    EXPECT_TRUE(trace.predictions.emplace(j.id, start).second)
        << "job " << j.id << " predicted twice";
  };
  cb.on_start = [&](const Job& j) {
    trace.events.emplace_back('s', j.id, j.start_time);
  };
  cb.on_finish = [&](const Job& j) {
    trace.events.emplace_back('f', j.id, j.finish_time());
  };
  cb.on_cancelled = [&](const Job& j) {
    trace.events.emplace_back('c', j.id, sim.now());
  };
  sched.set_callbacks(std::move(cb));

  util::Rng rng(wp.seed);
  double t = 0.0;
  // A uniform draw in [lo, hi]; an integer one under wp.ties.
  const auto draw = [&rng, &wp](double lo, double hi) {
    return wp.ties ? static_cast<double>(
                         rng.between(static_cast<std::int64_t>(lo),
                                     static_cast<std::int64_t>(hi)))
                   : rng.uniform(lo, hi);
  };
  for (JobId id = 1; id <= static_cast<JobId>(wp.jobs); ++id) {
    Job job;
    job.id = id;
    double cancel_after = -1.0;  // < 0: never cancelled
    if (wp.storm) {
      t += rng.uniform(0.5, 3.0);
      job.nodes = static_cast<int>(rng.between(1, std::min(wp.nodes, 8)));
      job.requested_time = rng.uniform(300.0, 3600.0);
      job.actual_time = job.requested_time;
      if (rng.chance(wp.cancel_fraction)) {
        cancel_after = rng.uniform(2.0, 90.0);
      }
    } else {
      t += wp.ties ? draw(0.0, 3.0) : rng.uniform(0.05, 12.0);
      job.nodes = static_cast<int>(rng.between(1, wp.nodes));
      job.requested_time = draw(5.0, 250.0);
      // Frequent early completions exercise the compression path.
      job.actual_time =
          rng.chance(0.3)
              ? job.requested_time
              : (wp.ties ? draw(1.0, job.requested_time - 1.0)
                         : job.requested_time * rng.uniform(0.15, 0.95));
      if (rng.chance(wp.cancel_fraction)) cancel_after = draw(0.0, 120.0);
    }
    sim.schedule_at(t,
                    [&s = sched, &trace, job] {
                      s.submit(job);
                      trace.peak_queue =
                          std::max(trace.peak_queue, s.queue_length());
                    },
                    des::Priority::kArrival);
    if (cancel_after >= 0.0) {
      sim.schedule_at(t + cancel_after,
                      [&s = sched, &trace, id] {
                        if (s.cancel(id)) ++trace.cancels_issued;
                      },
                      des::Priority::kCancel);
    }
  }
  sim.run();

  trace.counters = sched.counters();
  if constexpr (std::is_same_v<Scheduler, CbfScheduler>) {
    trace.fallbacks = sched.self_check_fallbacks();
    trace.rebuilds = sched.counters().profile_rebuilds;
  }
  return trace;
}

void expect_traces_equal(const Trace& a, const Trace& b,
                         std::uint64_t seed) {
  ASSERT_EQ(a.events.size(), b.events.size()) << "seed=" << seed;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i], b.events[i]) << "seed=" << seed << " i=" << i;
  }
  EXPECT_EQ(a.predictions, b.predictions) << "seed=" << seed;
  EXPECT_EQ(a.counters.submits, b.counters.submits) << "seed=" << seed;
  EXPECT_EQ(a.counters.starts, b.counters.starts) << "seed=" << seed;
  EXPECT_EQ(a.counters.cancels, b.counters.cancels) << "seed=" << seed;
  EXPECT_EQ(a.counters.finishes, b.counters.finishes) << "seed=" << seed;
  EXPECT_EQ(a.counters.declines, b.counters.declines) << "seed=" << seed;
  EXPECT_EQ(a.counters.sched_passes, b.counters.sched_passes)
      << "seed=" << seed;
}

TEST(CbfIncremental, MatchesLegacyRebuildTraceBitExactly) {
  for (std::uint64_t seed : {11u, 23u, 47u, 90u, 181u}) {
    WorkloadParams wp;
    wp.seed = seed;
    const Trace legacy = run_workload<LegacyCbf>(wp);
    const Trace incremental = run_workload<CbfScheduler>(wp);
    expect_traces_equal(legacy, incremental, seed);
    ASSERT_GT(incremental.cancels_issued, 20u) << "workload too tame";
    // Every submitted job's prediction was reported, once.
    EXPECT_EQ(incremental.predictions.size(),
              static_cast<std::size_t>(wp.jobs));
  }
}

TEST(CbfIncremental, MatchesLegacyWithoutDeclines) {
  WorkloadParams wp;
  wp.seed = 400;
  wp.declines = false;
  const Trace legacy = run_workload<LegacyCbf>(wp);
  const Trace incremental = run_workload<CbfScheduler>(wp);
  expect_traces_equal(legacy, incremental, wp.seed);
  // This workload takes the from-scratch rebuild fallback, so the replica
  // checks that path too.
  EXPECT_GT(incremental.rebuilds, 0u);
}

TEST(CbfIncremental, CancelStormMatchesLegacy) {
  // micro_sched's workload, seed and size: 2 500 submissions on 64 nodes,
  // 75% of them cancelled near the tail of a queue over 600 deep, with
  // every fallback from the incremental guard (self-check off).
  WorkloadParams wp;
  wp.seed = 20260807;
  wp.nodes = 64;
  wp.jobs = 2500;
  wp.cancel_fraction = 0.75;
  wp.declines = false;
  wp.storm = true;
  const Trace legacy = run_workload<LegacyCbf>(wp);
  const Trace incremental = run_workload<CbfScheduler>(wp);
  expect_traces_equal(legacy, incremental, wp.seed);
  EXPECT_EQ(incremental.peak_queue, 642u);
  EXPECT_EQ(incremental.cancels_issued, 1832u);
  EXPECT_EQ(incremental.rebuilds, 515u);
}

TEST(CbfIncremental, TieHeavyTraceMatchesLegacy) {
  // Integer times make every tie the continuous workloads above almost
  // never draw: same-instant submits, cancels and completions, and due
  // jobs blocked until an equal-time completion frees their nodes.
  for (std::uint64_t seed : {2u, 31u, 97u}) {
    WorkloadParams wp;
    wp.seed = seed;
    wp.ties = true;
    wp.self_check = true;
    const Trace legacy = run_workload<LegacyCbf>(wp);
    const Trace incremental = run_workload<CbfScheduler>(wp);
    expect_traces_equal(legacy, incremental, seed);
    EXPECT_EQ(incremental.fallbacks, 0u) << "seed=" << seed;
    EXPECT_GT(incremental.counters.declines, 0u) << "seed=" << seed;
    EXPECT_GT(incremental.cancels_issued, 20u) << "seed=" << seed;
  }
}

TEST(CbfIncremental, SelfCheckReportsNoDivergence) {
  // The built-in oracle re-derives every reservation from a from-scratch
  // rebuild after each compression; any mismatch is a correctness bug in
  // the incremental update.
  for (std::uint64_t seed : {3u, 59u, 322u}) {
    des::Simulation sim;
    CbfScheduler sched(sim, 16);
    sched.set_self_check(true);
    util::Rng rng(seed);
    double t = 0.0;
    for (JobId id = 1; id <= 200; ++id) {
      t += rng.uniform(0.05, 10.0);
      Job job;
      job.id = id;
      job.nodes = static_cast<int>(rng.between(1, 16));
      job.requested_time = rng.uniform(5.0, 200.0);
      job.actual_time = job.requested_time * rng.uniform(0.1, 1.0);
      sim.schedule_at(t, [&sched, job] { sched.submit(job); },
                      des::Priority::kArrival);
      if (rng.chance(0.6)) {
        sim.schedule_at(t + rng.uniform(0.0, 90.0),
                        [&sched, id] { sched.cancel(id); },
                        des::Priority::kCancel);
      }
    }
    sim.run();
    EXPECT_EQ(sched.self_check_fallbacks(), 0u) << "seed=" << seed;
    EXPECT_GT(sched.counters().cancels, 30u);
  }
}

TEST(CbfIncremental, IncrementalPathCarriesTheCancelLoad) {
  // The rebuild fallback must be the exception, not the rule: cancels and
  // early completions should overwhelmingly take the in-place compression
  // path.
  WorkloadParams wp;
  wp.seed = 77;
  wp.jobs = 400;
  const Trace trace = run_workload<CbfScheduler>(wp);
  const std::uint64_t compress_events =
      trace.counters.cancels + trace.counters.declines;
  ASSERT_GT(compress_events, 50u);
  EXPECT_LT(trace.rebuilds, compress_events / 2)
      << "rebuild fallback dominates; incremental gate too conservative";
}

}  // namespace
}  // namespace rrsim::sched

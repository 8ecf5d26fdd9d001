// Scheduler hot-path benchmark and perf record.
//
// Replays one redundancy-heavy synthetic workload — a deep queue where
// most submissions are "losing replicas" cancelled a few seconds later,
// exactly the cancel storm a redundant-request gateway produces — through
// FCFS, EASY and the incremental CBF, and a deep case eight times as long
// through FCFS and EASY, where the queue grows thousands deep. Reports
// schedule-passes/sec and cancels/sec per scheduler and writes them to
// BENCH_sched.json. Every row is timed by bench::time_repeatable, so
// every replay must produce the same trace. That each scheduler's trace
// equals the design it replaced is checked in sched_tests:
// CbfIncremental.* replays this cancel storm against the rebuild-CBF
// replica, PendingQueueOracle.* deep scripts against the deque-backed
// EASY and FCFS.
//
//   ./micro_sched [--submissions=2500] [--nodes=64]
//                 [--out=BENCH_sched.json]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "rrsim/des/simulation.h"
#include "rrsim/sched/cbf.h"
#include "rrsim/sched/easy.h"
#include "rrsim/sched/fcfs.h"
#include "rrsim/util/rng.h"

namespace {

using namespace rrsim;

// ---------------------------------------------------------------------------
// The workload: a cancel storm over an ever-deepening queue.
//
// Arrivals outpace the cluster by design (the paper's overload regime), so
// the 25% of submissions that are "winning" requests pile up in the queue,
// while the other 75% — losing replicas whose sibling started elsewhere —
// are cancelled a few seconds after submission. Cancels therefore hit near
// the *tail* of a queue hundreds deep, where the incremental CBF core
// re-reserves only the short suffix behind the freed slot. Jobs run
// exactly their requested time, so the replay isolates cancel handling.
struct Workload {
  struct Submission {
    sched::Job job;
    double submit_at = 0.0;
    double cancel_at = -1.0;  // < 0: never cancelled
  };
  std::vector<Submission> submissions;
};

Workload make_workload(int submissions, int nodes, std::uint64_t seed) {
  Workload w;
  w.submissions.reserve(static_cast<std::size_t>(submissions));
  util::Rng rng(seed);
  double t = 0.0;
  for (int i = 1; i <= submissions; ++i) {
    t += rng.uniform(0.5, 3.0);
    Workload::Submission s;
    s.job.id = static_cast<sched::JobId>(i);
    s.job.nodes = static_cast<int>(rng.between(1, std::min(nodes, 8)));
    s.job.requested_time = rng.uniform(300.0, 3600.0);
    s.job.actual_time = s.job.requested_time;
    s.submit_at = t;
    if (rng.chance(0.75)) s.cancel_at = t + rng.uniform(2.0, 90.0);
    w.submissions.push_back(s);
  }
  return w;
}

// What one scheduler did with the workload.
struct RunResult {
  sched::OpCounters counters;
  std::uint64_t cancels_issued = 0;
  std::size_t peak_queue = 0;
  double start_time_sum = 0.0;  // deterministic trace checksum
  bool operator==(const RunResult& o) const {
    return counters.starts == o.counters.starts &&
           counters.finishes == o.counters.finishes &&
           counters.cancels == o.counters.cancels &&
           counters.sched_passes == o.counters.sched_passes &&
           counters.profile_rebuilds == o.counters.profile_rebuilds &&
           cancels_issued == o.cancels_issued &&
           peak_queue == o.peak_queue &&
           start_time_sum == o.start_time_sum;
  }
};

template <typename Scheduler>
RunResult replay(const Workload& w, int nodes) {
  des::Simulation sim;
  Scheduler sched(sim, nodes);
  RunResult result;

  sched::ClusterScheduler::Callbacks cb;
  cb.on_start = [&result](const sched::Job& j) {
    result.start_time_sum += j.start_time;
  };
  sched.set_callbacks(std::move(cb));

  for (const Workload::Submission& s : w.submissions) {
    sim.schedule_at(s.submit_at,
                    [&sched, &result, job = s.job] {
                      sched.submit(job);
                      result.peak_queue =
                          std::max(result.peak_queue, sched.queue_length());
                    },
                    des::Priority::kArrival);
    if (s.cancel_at >= 0.0) {
      const sched::JobId id = s.job.id;
      sim.schedule_at(s.cancel_at,
                      [&sched, &result, id] {
                        if (sched.cancel(id)) ++result.cancels_issued;
                      },
                      des::Priority::kCancel);
    }
  }
  sim.run();
  result.counters = sched.counters();
  return result;
}

/// One timed row: the replay's timing and what it did.
struct Row {
  bench::Timing t;
  RunResult r;
  double passes_per_sec() const {
    return static_cast<double>(r.counters.sched_passes) / t.median;
  }
  double cancels_per_sec() const {
    return static_cast<double>(r.counters.cancels) / t.median;
  }
};

template <typename Scheduler>
Row run_row(const char* name, const Workload& w, int nodes) {
  const auto [t, r] = bench::time_repeatable(
      std::string(name) + " replay",
      [&] { return replay<Scheduler>(w, nodes); });
  const Row row{t, r};
  std::printf("  %-6s %8.4f s  [%.4f, %.4f]  %9llu passes  %10.0f "
              "passes/s  %9.0f cancels/s  peak queue %zu\n",
              name, t.median, t.min, t.max,
              static_cast<unsigned long long>(r.counters.sched_passes),
              row.passes_per_sec(), row.cancels_per_sec(), r.peak_queue);
  return row;
}

void write_row(bench::JsonWriter& w, const char* name, const Row& row) {
  w.key(name).begin_object();
  w.field("seconds", row.t);
  w.field("passes", row.r.counters.sched_passes);
  w.field("passes_per_sec", row.passes_per_sec(), 0);
  w.field("cancels", row.r.counters.cancels);
  w.field("cancels_per_sec", row.cancels_per_sec(), 0);
  w.field("starts", row.r.counters.starts);
  w.field("peak_queue", row.r.peak_queue);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  return rrsim::bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    // The deep case replays kDeepFactor times as many submissions.
    constexpr int kDeepFactor = 8;
    const auto submissions = static_cast<int>(
        cli.get_int_in("submissions", 2500, 1, kIntMax / kDeepFactor));
    const auto nodes =
        static_cast<int>(cli.get_int_in("nodes", 64, 1, kIntMax));
    const std::string out_path = cli.get_string("out", "BENCH_sched.json");
    cli.reject_unread();
    const int deep_submissions = kDeepFactor * submissions;

    std::printf("=== micro_sched - scheduler hot-path throughput ===\n");
    std::printf(
        "one redundancy-heavy workload (%d submissions, 75%% cancelled as\n"
        "losing replicas, %d nodes) replayed through each scheduler, and a\n"
        "deep case of %d submissions through FCFS and EASY; seconds are the\n"
        "median of %d timed replays after a warm-up, [min, max] beside\n"
        "them\n\n",
        submissions, nodes, deep_submissions, bench::kTimedRuns);

    const Workload w = make_workload(submissions, nodes, 20260807);
    const Row fcfs = run_row<sched::FcfsScheduler>("fcfs", w, nodes);
    const Row easy = run_row<sched::EasyScheduler>("easy", w, nodes);
    const Row cbf = run_row<sched::CbfScheduler>("cbf", w, nodes);
    std::printf("cbf: %llu rebuild fallbacks\n",
                static_cast<unsigned long long>(
                    cbf.r.counters.profile_rebuilds));

    std::printf("\ndeep case: %d submissions\n", deep_submissions);
    const Workload deep = make_workload(deep_submissions, nodes, 20260807);
    const Row deep_fcfs =
        run_row<sched::FcfsScheduler>("fcfs", deep, nodes);
    const Row deep_easy =
        run_row<sched::EasyScheduler>("easy", deep, nodes);

    bench::JsonWriter out = bench::begin_record("micro_sched", 1);
    out.field("submissions", submissions).field("nodes", nodes);
    out.field("cancels_issued", cbf.r.cancels_issued);
    write_row(out, "fcfs", fcfs);
    write_row(out, "easy", easy);
    write_row(out, "cbf", cbf);
    out.field("cbf_rebuild_fallbacks", cbf.r.counters.profile_rebuilds);
    out.key("deep").begin_object();
    out.field("submissions", deep_submissions);
    out.field("cancels_issued", deep_easy.r.cancels_issued);
    write_row(out, "fcfs", deep_fcfs);
    write_row(out, "easy", deep_easy);
    out.end_object();
    out.field("deterministic_across_runs", true).end_object();
    bench::finish_record(out, out_path);
  });
}

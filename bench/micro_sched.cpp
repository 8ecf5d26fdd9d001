// Scheduler hot-path benchmark and perf record.
//
// Replays one redundancy-heavy synthetic workload — a deep queue where
// most submissions are "losing replicas" cancelled a few seconds later,
// exactly the cancel storm a redundant-request gateway produces — through
// FCFS, EASY, the incremental CBF, and in-file replicas of the designs
// they replaced: the pre-incremental CBF that rebuilt its availability
// profile from scratch on every cancel, and the EASY and FCFS that kept
// their queue in a std::deque<Job> (linear cancel scan, mid-queue erase).
// A deep case replays a workload eight times as long through EASY, FCFS
// and their deque replicas, where the queue grows thousands deep. Reports
// schedule-passes/sec and cancels/sec per algorithm, verifies every
// current scheduler reproduces its replica's trace in the same run, and
// writes the results to BENCH_sched.json so future PRs have a perf
// trajectory to compare against.
//
//   ./micro_sched [--submissions=2500] [--nodes=64]
//                 [--out=BENCH_sched.json] plus common flags.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iterator>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "rrsim/des/simulation.h"
#include "rrsim/sched/cbf.h"
#include "rrsim/sched/easy.h"
#include "rrsim/sched/fcfs.h"
#include "rrsim/sched/profile.h"
#include "rrsim/util/rng.h"

namespace {

using namespace rrsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Legacy CBF replica: a faithful copy of the seed tree's conservative
// backfilling, which rebuilt the profile from scratch on every cancel and
// early completion, scanned the whole queue per dispatch pass, and swept
// it again to find the next wake-up. Kept in-file (mirroring the oracle
// in tests/sched/cbf_incremental_test.cpp) so the incremental core's win
// stays measurable against the design it replaced.
class LegacyCbf final : public sched::ClusterScheduler {
 public:
  LegacyCbf(des::Simulation& sim, int total_nodes)
      : ClusterScheduler(sim, total_nodes), profile_(total_nodes) {}

  std::string name() const override { return "cbf-rebuild"; }
  std::size_t queue_length() const override { return queue_.size(); }

 protected:
  void handle_submit(sched::Job job) override {
    const sched::Time now = sim_.now();
    const sched::Time s =
        profile_.earliest_start(now, job.nodes, job.requested_time);
    profile_.reserve(s, job.requested_time, job.nodes);
    record_prediction(job.id, s);
    queue_.push_back(Entry{std::move(job), s});
    dispatch_ready();
  }

  sched::Job handle_cancel(sched::JobId id) override {
    const auto it =
        std::find_if(queue_.begin(), queue_.end(),
                     [id](const Entry& e) { return e.job.id == id; });
    if (it == queue_.end()) {
      throw std::logic_error("legacy cbf: cancel of non-pending job");
    }
    sched::Job job = it->job;
    queue_.erase(it);
    rebuild_profile();
    dispatch_ready();
    return job;
  }

  void handle_completion(const sched::Job& job) override {
    const bool early = job.finish_time() < job.start_time + job.requested_time;
    if (early) rebuild_profile();
    dispatch_ready();
  }

 private:
  struct Entry {
    sched::Job job;
    sched::Time reserved_start = 0.0;
  };

  void rebuild_profile() {
    count_pass();
    const sched::Time now = sim_.now();
    profile_ = sched::Profile(total_nodes());
    for (const auto& [id, job] : running_jobs()) {
      const sched::Time end = job.start_time + job.requested_time;
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
    const sched::Time now = sim_.now();
    bool again = true;
    while (again) {
      again = false;
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->reserved_start > now) continue;
        if (it->job.nodes > free_nodes()) continue;
        sched::Job job = it->job;
        queue_.erase(it);
        if (!try_start(std::move(job))) rebuild_profile();
        again = true;
        break;
      }
    }
    wakeup_.cancel();
    sched::Time next = des::kTimeInfinity;
    for (const Entry& e : queue_) {
      if (e.reserved_start > now) next = std::min(next, e.reserved_start);
    }
    if (next < des::kTimeInfinity) {
      wakeup_ = sim_.schedule_at(
          next, [this] { dispatch_ready(); }, des::Priority::kControl);
    }
  }

  std::vector<Entry> queue_;
  sched::Profile profile_;
  des::Simulation::EventHandle wakeup_;
};

// ---------------------------------------------------------------------------
// Deque EASY and FCFS replicas: faithful copies of the schedulers before
// the indexed pending queue. A cancel found its job by linear scan and
// erased it from the middle of a std::deque<Job>; EASY's backfill walked
// every queued job behind the head. Kept in-file (mirroring the oracle in
// tests/sched/pending_queue_oracle_test.cpp) so the indexed queue's win
// stays measurable against the design it replaced.
class DequeEasy final : public sched::ClusterScheduler {
 public:
  DequeEasy(des::Simulation& sim, int total_nodes)
      : ClusterScheduler(sim, total_nodes) {}

  std::string name() const override { return "easy-deque"; }
  std::size_t queue_length() const override { return queue_.size(); }

 protected:
  void handle_submit(sched::Job job) override {
    queue_.push_back(std::move(job));
    schedule_pass();
  }

  sched::Job handle_cancel(sched::JobId id) override {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->id == id) {
        sched::Job job = *it;
        queue_.erase(it);
        schedule_pass();
        return job;
      }
    }
    throw std::logic_error("deque easy: cancel of non-pending job");
  }

  void handle_completion(const sched::Job& job) override {
    const std::pair<sched::Time, int> key{
        job.start_time + job.requested_time, job.nodes};
    const auto it =
        std::lower_bound(running_ends_.begin(), running_ends_.end(), key);
    if (it == running_ends_.end() || *it != key) {
      throw std::logic_error("deque easy: finished job not tracked");
    }
    running_ends_.erase(it);
    schedule_pass();
  }

 private:
  struct Shadow {
    sched::Time time = 0.0;
    int extra = 0;
  };

  Shadow compute_shadow() const {
    const sched::Job& head = queue_.front();
    int avail = free_nodes();
    for (const auto& [end, nodes] : running_ends_) {
      avail += nodes;
      if (avail >= head.nodes) return Shadow{end, avail - head.nodes};
    }
    throw std::logic_error("deque easy: shadow not found");
  }

  bool start_and_track(sched::Job job) {
    const sched::Time end = sim_.now() + job.requested_time;
    const int nodes = job.nodes;
    if (!try_start(std::move(job))) return false;
    const std::pair<sched::Time, int> key{end, nodes};
    running_ends_.insert(
        std::upper_bound(running_ends_.begin(), running_ends_.end(), key),
        key);
    return true;
  }

  void schedule_pass() {
    count_pass();
    for (;;) {
      while (!queue_.empty() && queue_.front().nodes <= free_nodes()) {
        sched::Job job = std::move(queue_.front());
        queue_.pop_front();
        start_and_track(std::move(job));
      }
      if (queue_.empty()) return;
      Shadow shadow = compute_shadow();
      const sched::Time now = sim_.now();
      bool queue_changed = false;
      for (auto it = std::next(queue_.begin());
           it != queue_.end() && free_nodes() > 0;) {
        const bool fits_now = it->nodes <= free_nodes();
        const bool ends_before_shadow =
            now + it->requested_time <= shadow.time;
        const bool within_extra = it->nodes <= shadow.extra;
        if (fits_now && (ends_before_shadow || within_extra)) {
          sched::Job job = *it;
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

  std::deque<sched::Job> queue_;
  std::vector<std::pair<sched::Time, int>> running_ends_;
};

class DequeFcfs final : public sched::ClusterScheduler {
 public:
  DequeFcfs(des::Simulation& sim, int total_nodes)
      : ClusterScheduler(sim, total_nodes) {}

  std::string name() const override { return "fcfs-deque"; }
  std::size_t queue_length() const override { return queue_.size(); }

 protected:
  void handle_submit(sched::Job job) override {
    queue_.push_back(std::move(job));
    schedule_pass();
  }

  sched::Job handle_cancel(sched::JobId id) override {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->id == id) {
        sched::Job job = *it;
        queue_.erase(it);
        schedule_pass();
        return job;
      }
    }
    throw std::logic_error("deque fcfs: cancel of non-pending job");
  }

  void handle_completion(const sched::Job&) override { schedule_pass(); }

 private:
  void schedule_pass() {
    count_pass();
    while (!queue_.empty() && queue_.front().nodes <= free_nodes()) {
      sched::Job job = std::move(queue_.front());
      queue_.pop_front();
      try_start(std::move(job));
    }
  }

  std::deque<sched::Job> queue_;
};

// ---------------------------------------------------------------------------
// The workload: a cancel storm over an ever-deepening queue.
//
// Arrivals outpace the cluster by design (the paper's overload regime), so
// the 25% of submissions that are "winning" requests pile up in the queue,
// while the other 75% — losing replicas whose sibling started elsewhere —
// are cancelled a few seconds after submission. Cancels therefore hit near
// the *tail* of a queue hundreds deep: the rebuild baseline re-reserves
// every queued job on each one, the incremental core only the short
// suffix behind the freed slot. Jobs run exactly their requested time so
// the comparison isolates cancel handling (early-completion compression
// costs O(queue) in both designs).
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

// What one scheduler did with the workload, plus how fast.
struct RunResult {
  double elapsed = 0.0;
  sched::OpCounters counters;
  std::uint64_t cancels_issued = 0;
  std::size_t peak_queue = 0;
  double start_time_sum = 0.0;  // deterministic trace checksum
  std::uint64_t rebuilds = 0;   // incremental CBF only
  double passes_per_sec() const {
    return static_cast<double>(counters.sched_passes) / elapsed;
  }
  double cancels_per_sec() const {
    return static_cast<double>(counters.cancels) / elapsed;
  }
};

template <typename Scheduler>
RunResult replay(const Workload& w, int nodes) {
  const auto start = Clock::now();
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
  if constexpr (std::is_same_v<Scheduler, sched::CbfScheduler>) {
    result.rebuilds = sched.counters().profile_rebuilds;
  }
  result.elapsed = seconds_since(start);
  return result;
}

// Best of five replays: they are deterministic, so repetitions differ
// only in timing, and the fastest is the one least disturbed by cold
// caches and other processes (single replays of the 2 500-submission
// case take a few milliseconds).
template <typename Scheduler>
RunResult run_workload(const Workload& w, int nodes) {
  RunResult best = replay<Scheduler>(w, nodes);
  for (int rep = 1; rep < 5; ++rep) {
    const RunResult r = replay<Scheduler>(w, nodes);
    if (r.elapsed < best.elapsed) best = r;
  }
  return best;
}

void print_row(const char* name, const RunResult& r) {
  std::printf("  %-12s %8.3f s  %9llu passes  %12.0f passes/s  %10.0f "
              "cancels/s  peak queue %zu\n",
              name, r.elapsed,
              static_cast<unsigned long long>(r.counters.sched_passes),
              r.passes_per_sec(), r.cancels_per_sec(), r.peak_queue);
}

// The behaviour-preservation contract, enforced in the same run that
// measures the speedup: same starts, same finishes, same cancel outcomes,
// same number of scheduling passes, same start times.
void require_same_trace(const RunResult& now, const RunResult& replica,
                        const char* what) {
  if (now.counters.starts != replica.counters.starts ||
      now.counters.finishes != replica.counters.finishes ||
      now.counters.cancels != replica.counters.cancels ||
      now.counters.sched_passes != replica.counters.sched_passes ||
      now.cancels_issued != replica.cancels_issued ||
      now.start_time_sum != replica.start_time_sum) {
    throw std::runtime_error(std::string("equivalence violation: ") + what);
  }
}

// The current EASY and FCFS against their deque replicas on one workload.
struct QueueCase {
  RunResult fcfs, fcfs_deque, easy, easy_deque;
  double fcfs_speedup() const { return fcfs_deque.elapsed / fcfs.elapsed; }
  double easy_speedup() const { return easy_deque.elapsed / easy.elapsed; }
};

QueueCase run_queue_case(const Workload& w, int nodes) {
  QueueCase c;
  c.fcfs = run_workload<sched::FcfsScheduler>(w, nodes);
  print_row("fcfs", c.fcfs);
  c.fcfs_deque = run_workload<DequeFcfs>(w, nodes);
  print_row("fcfs-deque", c.fcfs_deque);
  c.easy = run_workload<sched::EasyScheduler>(w, nodes);
  print_row("easy", c.easy);
  c.easy_deque = run_workload<DequeEasy>(w, nodes);
  print_row("easy-deque", c.easy_deque);
  require_same_trace(c.fcfs, c.fcfs_deque,
                     "fcfs diverged from the deque baseline");
  require_same_trace(c.easy, c.easy_deque,
                     "easy diverged from the deque baseline");
  return c;
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
        "losing replicas, %d nodes) replayed through each scheduler;\n"
        "cbf-rebuild is the pre-incremental design (full profile rebuild\n"
        "per cancel) and fcfs-deque/easy-deque the deque-backed queues;\n"
        "each must produce the same trace as its current scheduler\n\n",
        submissions, nodes);

    const Workload w = make_workload(submissions, nodes, 20260807);

    const QueueCase base = run_queue_case(w, nodes);
    const RunResult legacy = run_workload<LegacyCbf>(w, nodes);
    print_row("cbf-rebuild", legacy);
    const RunResult cbf = run_workload<sched::CbfScheduler>(w, nodes);
    print_row("cbf", cbf);
    require_same_trace(cbf, legacy,
                       "incremental cbf diverged from the rebuild baseline");

    std::printf("\ndeep case: %d submissions\n", deep_submissions);
    const QueueCase deep = run_queue_case(
        make_workload(deep_submissions, nodes, 20260807), nodes);

    const double speedup = legacy.elapsed / cbf.elapsed;
    std::printf(
        "\ncbf incremental vs rebuild: %.2fx  (%llu cancels, %llu rebuild "
        "fallbacks, traces bit-identical)\n",
        speedup, static_cast<unsigned long long>(cbf.counters.cancels),
        static_cast<unsigned long long>(cbf.rebuilds));
    std::printf(
        "indexed queue vs deque: fcfs %.2fx, easy %.2fx; deep case fcfs "
        "%.2fx, easy %.2fx (traces identical)\n",
        base.fcfs_speedup(), base.easy_speedup(), deep.fcfs_speedup(),
        deep.easy_speedup());

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("cannot write " + out_path);
    }
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"micro_sched\",\n");
    bench::write_json_env_fields(f, 1);
    std::fprintf(f,
                 "  \"submissions\": %d,\n"
                 "  \"nodes\": %d,\n"
                 "  \"cancels\": %llu,\n"
                 "  \"peak_queue_cbf\": %zu,\n"
                 "  \"fcfs_passes_per_sec\": %.0f,\n"
                 "  \"fcfs_cancels_per_sec\": %.0f,\n"
                 "  \"fcfs_deque_cancels_per_sec\": %.0f,\n"
                 "  \"fcfs_speedup_vs_deque\": %.4f,\n"
                 "  \"easy_passes_per_sec\": %.0f,\n"
                 "  \"easy_cancels_per_sec\": %.0f,\n"
                 "  \"easy_deque_cancels_per_sec\": %.0f,\n"
                 "  \"easy_speedup_vs_deque\": %.4f,\n"
                 "  \"cbf_rebuild_seconds\": %.4f,\n"
                 "  \"cbf_rebuild_passes_per_sec\": %.0f,\n"
                 "  \"cbf_rebuild_cancels_per_sec\": %.0f,\n"
                 "  \"cbf_seconds\": %.4f,\n"
                 "  \"cbf_passes_per_sec\": %.0f,\n"
                 "  \"cbf_cancels_per_sec\": %.0f,\n"
                 "  \"cbf_rebuild_fallbacks\": %llu,\n"
                 "  \"cbf_speedup_vs_rebuild\": %.4f,\n",
                 submissions, nodes,
                 static_cast<unsigned long long>(cbf.counters.cancels),
                 cbf.peak_queue, base.fcfs.passes_per_sec(),
                 base.fcfs.cancels_per_sec(),
                 base.fcfs_deque.cancels_per_sec(), base.fcfs_speedup(),
                 base.easy.passes_per_sec(), base.easy.cancels_per_sec(),
                 base.easy_deque.cancels_per_sec(), base.easy_speedup(),
                 legacy.elapsed, legacy.passes_per_sec(),
                 legacy.cancels_per_sec(), cbf.elapsed, cbf.passes_per_sec(),
                 cbf.cancels_per_sec(),
                 static_cast<unsigned long long>(cbf.rebuilds), speedup);
    std::fprintf(f,
                 "  \"deep_submissions\": %d,\n"
                 "  \"deep_cancels\": %llu,\n"
                 "  \"deep_peak_queue\": %zu,\n"
                 "  \"deep_fcfs_cancels_per_sec\": %.0f,\n"
                 "  \"deep_fcfs_deque_cancels_per_sec\": %.0f,\n"
                 "  \"deep_fcfs_speedup_vs_deque\": %.4f,\n"
                 "  \"deep_easy_cancels_per_sec\": %.0f,\n"
                 "  \"deep_easy_deque_cancels_per_sec\": %.0f,\n"
                 "  \"deep_easy_speedup_vs_deque\": %.4f,\n"
                 "  \"traces_bit_identical\": true\n"
                 "}\n",
                 deep_submissions,
                 static_cast<unsigned long long>(deep.easy.counters.cancels),
                 deep.easy.peak_queue, deep.fcfs.cancels_per_sec(),
                 deep.fcfs_deque.cancels_per_sec(), deep.fcfs_speedup(),
                 deep.easy.cancels_per_sec(),
                 deep.easy_deque.cancels_per_sec(), deep.easy_speedup());
    std::fclose(f);
    std::printf("\nperf record written to %s\n", out_path.c_str());
  });
}

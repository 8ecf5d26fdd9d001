// Cross-task fan-out with per-task ordered reduction: the execution core
// of the sweep engine.
//
// A sweep is a list of tasks (the points of a figure or table), each made
// of `n` independent, index-addressed work units (the replications of that
// point). Parallelizing one task at a time would strand workers at every
// point boundary: a 30-point figure with 10 replications on an 8-core box
// would repeatedly drain to the 1-2 slowest replications before the next
// point may start. SweepRunner instead flattens all queued tasks' units
// into ONE pool serviced by ONE set of worker threads — (point,
// replication) units from different points run side by side, so the
// machine only drains once, at the very end of the whole sweep.
//
// Determinism contract: map(u) may run on any thread in any order;
// reductions run on the calling thread, tasks in add() order, units in
// index order within each task. Output is therefore bit-identical for any
// worker count, provided each unit derives its randomness from its index.
//
// A single long-lived pool has a second, quieter benefit: worker threads
// survive the whole sweep, so thread_local state (the per-worker
// core::ExperimentWorkspace arenas) stays warm across every unit the
// thread executes, instead of dying with a per-point pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "rrsim/exec/jobs.h"
#include "rrsim/exec/thread_pool.h"

namespace rrsim::exec {

/// Queue tasks with add(), execute everything with run().
class SweepRunner {
 public:
  /// jobs = 0 resolves via resolve_jobs() (--jobs flag, RRSIM_JOBS env,
  /// hardware concurrency); otherwise uses `jobs` workers.
  explicit SweepRunner(int jobs = 0) : jobs_(resolve_jobs(jobs)) {}

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  int jobs() const noexcept { return jobs_; }

  /// Work units queued so far (across all tasks).
  std::size_t pending_units() const noexcept { return total_units_; }

  /// Queues one task of `n` units. map(u) produces unit u's result on a
  /// worker thread; reduce(u, result) folds it on the thread that later
  /// calls run(), in unit order, after all tasks queued before this one
  /// have been reduced. Both callables are captured by value (they outlive
  /// this call); map must be const-invocable from multiple threads.
  template <typename Map, typename Reduce>
  void add(int n, Map map, Reduce reduce) {
    add_affine(n, 0, std::move(map), std::move(reduce));
  }

  /// add() with a cache-affinity hint. Tasks sharing a nonzero `affinity`
  /// declare that same-index units derive identical expensive state (for
  /// campaign sweeps: unit r of every point at one trace_affinity replays
  /// the same memoized trace — see core::trace_affinity), so run() orders
  /// execution to make the sharing pay: of each (affinity, unit) group,
  /// the first-queued member runs in a leader phase (cold, generating the
  /// shared state in parallel across groups), and the remaining members
  /// run after a barrier (warm, all hits). affinity == 0 opts out — every
  /// unit is its own group and execution order is exactly add() order.
  /// Scheduling only: results, reduction order, and therefore output are
  /// bit-identical to add() for any worker count, because each unit still
  /// writes its own result slot and reductions run task-by-task in add()
  /// order either way.
  template <typename Map, typename Reduce>
  void add_affine(int n, std::uint64_t affinity, Map map, Reduce reduce) {
    using R = std::invoke_result_t<Map&, int>;
    static_assert(!std::is_void_v<R>, "map must return the per-unit result");
    if (n <= 0) return;
    auto results = std::make_shared<std::vector<std::optional<R>>>(
        static_cast<std::size_t>(n));
    Task task;
    task.units = n;
    task.affinity = affinity;
    task.run_unit = [results, map = std::move(map)](int u) {
      (*results)[static_cast<std::size_t>(u)].emplace(map(u));
    };
    task.reduce_all = [results, reduce = std::move(reduce)]() {
      for (std::size_t u = 0; u < results->size(); ++u) {
        reduce(static_cast<int>(u), std::move(*(*results)[u]));
      }
    };
    total_units_ += static_cast<std::size_t>(n);
    tasks_.push_back(std::move(task));
  }

  /// Queues a task with no units: reduce() runs on the thread that calls
  /// run(), after every task queued before it has been reduced — a fold
  /// over what earlier tasks' reductions stored. Captured by value.
  template <typename Reduce>
  void then(Reduce reduce) {
    Task task;
    task.reduce_all = std::move(reduce);
    tasks_.push_back(std::move(task));
  }

  /// Executes every queued unit (one flat pool, one ThreadPool when
  /// jobs > 1), then reduces task by task in add() order, and clears the
  /// queue. The first exception to surface propagates and discards the
  /// whole batch (a partially-executed batch is not replayable); the
  /// runner itself stays usable for newly queued tasks. Calling run()
  /// with nothing queued is a no-op.
  void run();

 private:
  struct Task {
    int units = 0;
    std::uint64_t affinity = 0;  ///< 0 = no sharing declared
    // rrsim-lint-allow(std-function-member): assigned once per sweep
    // point (cold path); run_unit's signature takes the unit index, which
    // InlineFunction (void() only) cannot express.
    std::function<void(int)> run_unit;
    // rrsim-lint-allow(std-function-member): same — one assignment and
    // one call per sweep point, never per event.
    std::function<void()> reduce_all;
  };

  int jobs_;
  std::size_t total_units_ = 0;
  std::vector<Task> tasks_;
};

}  // namespace rrsim::exec

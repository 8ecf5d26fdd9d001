#include "rrsim/exec/sweep_runner.h"

#include <algorithm>
#include <map>

namespace rrsim::exec {

void SweepRunner::run() {
  // Flatten (task, unit) in queue order — the reference order everything
  // below is measured against: reduction is ALWAYS task-by-task in add()
  // order, units ascending, so execution order is pure scheduling.
  std::vector<std::pair<std::size_t, int>> flat;
  flat.reserve(total_units_);
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    for (int u = 0; u < tasks_[t].units; ++u) flat.emplace_back(t, u);
  }
  const int n = static_cast<int>(flat.size());

  // Cache-affine grouping: units of tasks sharing a nonzero affinity are
  // grouped per unit index (unit r of every such task replays trace r —
  // units differ in seed, so only same-index units share). The first
  // flat-order member of each group leads (cold: it generates the shared
  // memoized state); the rest follow (warm). Affinity-0 units are their
  // own leaders, so an affinity-free batch executes in exactly the
  // historical flat order.
  std::map<std::pair<std::uint64_t, int>, std::size_t> first_pos;
  std::vector<std::size_t> leaders;  // flat positions, ascending
  // (leader flat position, follower flat position), built ascending in the
  // second coordinate; sorting groups followers by leader while keeping
  // flat order within each group.
  std::vector<std::pair<std::size_t, std::size_t>> followers;
  for (std::size_t i = 0; i < flat.size(); ++i) {
    const std::uint64_t a = tasks_[flat[i].first].affinity;
    if (a == 0) {
      leaders.push_back(i);
      continue;
    }
    const auto [it, inserted] =
        first_pos.emplace(std::make_pair(a, flat[i].second), i);
    if (inserted) {
      leaders.push_back(i);
    } else {
      followers.emplace_back(it->second, i);
    }
  }
  std::sort(followers.begin(), followers.end());

  try {
    if (jobs_ <= 1 || n <= 1) {
      // Serial: each leader immediately followed by its own followers —
      // the tightest LRU locality a byte-budgeted trace cache can get.
      // Both vectors are ascending in leader position, so this is a merge.
      std::size_t fi = 0;
      for (const std::size_t li : leaders) {
        const auto& [t, u] = flat[li];
        tasks_[t].run_unit(u);
        for (; fi < followers.size() && followers[fi].first == li; ++fi) {
          const auto& [ft, fu] = flat[followers[fi].second];
          tasks_[ft].run_unit(fu);
        }
      }
    } else {
      // Parallel: leaders fan out first (cold generation runs once per
      // group, concurrently across groups), then a barrier, then the
      // followers (every shared lookup hits). Back-to-back
      // parallel_for_each calls on one pool are safe — each returns only
      // after every worker has left its loop — and the pool (with its
      // thread_local workspace arenas) stays warm across the phases.
      ThreadPool pool(jobs_ < n ? jobs_ : n);
      parallel_for_each(pool, static_cast<int>(leaders.size()),
                        [&flat, &leaders, this](int i) {
                          const auto& [t, u] =
                              flat[leaders[static_cast<std::size_t>(i)]];
                          tasks_[t].run_unit(u);
                        });
      parallel_for_each(pool, static_cast<int>(followers.size()),
                        [&flat, &followers, this](int i) {
                          const auto& [t, u] =
                              flat[followers[static_cast<std::size_t>(i)]
                                       .second];
                          tasks_[t].run_unit(u);
                        });
    }
    for (Task& task : tasks_) task.reduce_all();
  } catch (...) {
    // A partially-executed batch is not replayable; drop it whole so the
    // runner stays usable for fresh tasks.
    tasks_.clear();
    total_units_ = 0;
    throw;
  }
  tasks_.clear();
  total_units_ = 0;
}

}  // namespace rrsim::exec

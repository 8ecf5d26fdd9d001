#include "rrsim/exec/sweep_runner.h"

namespace rrsim::exec {

void SweepRunner::run() {
  // Flatten (task, unit) in queue order. Execution order is pure
  // scheduling: reduction is always task by task in add() order, units
  // ascending.
  std::vector<std::pair<std::size_t, int>> flat;
  flat.reserve(total_units_);
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    for (int u = 0; u < tasks_[t].units; ++u) flat.emplace_back(t, u);
  }
  const int n = static_cast<int>(flat.size());
  const auto run_unit = [&flat, this](int i) {
    const auto& [t, u] = flat[static_cast<std::size_t>(i)];
    tasks_[t].run_unit(u);
  };

  try {
    if (jobs_ <= 1 || n <= 1) {
      for (int i = 0; i < n; ++i) run_unit(i);
    } else {
      ThreadPool pool(jobs_ < n ? jobs_ : n);
      parallel_for_each(pool, n, run_unit);
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

// Quickstart: simulate one 128-node cluster under the Lublin-Feitelson
// workload with the EASY backfilling scheduler, and print the schedule
// metrics. This is the smallest end-to-end use of the rrsim public API.
//
//   ./quickstart [--nodes=128] [--hours=6] [--util=0.92] [--algo=easy]
//                [--seed=42]

#include <cstdio>
#include <exception>

#include "rrsim/core/options.h"
#include "rrsim/metrics/summary.h"
#include "rrsim/util/cli.h"

int main(int argc, char** argv) {
  try {
    const rrsim::util::Cli cli(argc, argv);

    rrsim::core::ExperimentConfig config;
    config.n_clusters = 1;  // a single site: no redundancy possible
    config.submit_horizon = 6.0 * 3600.0;
    // A lone cluster at the model's full peak rate would only ever grow
    // its queue; run it at a steady 90 % load by default.
    config.load_mode = rrsim::core::LoadMode::kCalibrated;
    config.target_utilization = 0.9;
    config.seed = 42;
    config = rrsim::core::apply_common_flags(config, cli);
    config.n_clusters = 1;
    cli.reject_unread();

    const rrsim::core::SimResult result = rrsim::core::run_experiment(config);
    const rrsim::metrics::ScheduleMetrics m =
        rrsim::metrics::compute_metrics(result.records);

    std::printf("rrsim quickstart: %zu jobs on %d nodes (%s)\n", m.jobs,
                config.nodes_per_cluster,
                rrsim::sched::algorithm_name(config.algorithm).c_str());
    std::printf("  average stretch      : %.3f\n", m.avg_stretch);
    std::printf("  CV of stretches      : %.1f %%\n", m.cv_stretch_percent);
    std::printf("  max stretch          : %.1f\n", m.max_stretch);
    std::printf("  average wait         : %.1f s\n", m.avg_wait);
    std::printf("  average turnaround   : %.1f s\n", m.avg_turnaround);
    std::printf("  scheduler ops        : %llu submits, %llu starts\n",
                static_cast<unsigned long long>(result.ops.submits),
                static_cast<unsigned long long>(result.ops.starts));
    std::printf("  drained at           : %.1f h simulated\n",
                result.end_time / 3600.0);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

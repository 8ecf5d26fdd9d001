// Section 4.1's two queue-population observations:
//  (1) at the model's literal peak arrival rate a cluster's queue grows by
//      several hundred jobs per hour (the paper quotes ~700/hour);
//  (2) in steady state, the ALL redundancy scheme's maximum queue size is
//      barely larger than with no redundancy (paper: < 2% at N=10 over
//      24 h) because replicas are cancelled as soon as their job starts.
//
//   ./sec41_queue_growth [--hours=4] [--seed=9] + common flags.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace rrsim;
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    std::printf("=== Section 4.1 - queue growth and redundancy's effect on "
                "queue size ===\n\n");

    // All three runs (peak-rate growth + the ALL/NONE steady-state pair)
    // go through one sweep pool as independent single-run units.
    core::ExperimentConfig peak;
    peak.n_clusters = 3;
    peak.load_mode = core::LoadMode::kPerClusterPeak;
    peak.submit_horizon = cli.get_double("hours", 4.0) * 3600.0;
    peak.drain = false;
    peak.truncate_factor = 1.0;
    peak.seed = static_cast<std::uint64_t>(cli.get_int("seed", 9));

    core::ExperimentConfig steady = core::figure_config();
    steady.load_mode = core::LoadMode::kCalibrated;
    steady.target_utilization = 0.7;
    steady.submit_horizon = 24.0 * 3600.0;
    steady.queue_sample_interval = 300.0;
    steady.seed = static_cast<std::uint64_t>(cli.get_int("seed", 9));
    steady = core::apply_common_flags(steady, cli);
    core::ExperimentConfig steady_all = steady;
    steady_all.scheme = core::RedundancyScheme::all();

    core::SimResult r_peak;
    core::SimResult r_none;
    core::SimResult r_all;
    core::CampaignSweep sweep(1);
    const auto queue_run = [&sweep](const core::ExperimentConfig& c,
                                    core::SimResult& out) {
      sweep.runner().add(
          1,
          [c](int) {
            return core::run_experiment(c, core::thread_workspace());
          },
          [&out](int, core::SimResult r) { out = std::move(r); });
    };
    queue_run(peak, r_peak);
    queue_run(steady, r_none);
    queue_run(steady_all, r_all);
    sweep.run();

    // (1) Peak-rate growth, no redundancy.
    {
      util::Table table({"cluster", "queue growth (jobs/hour)"});
      double avg = 0.0;
      for (std::size_t i = 0; i < peak.n_clusters; ++i) {
        table.begin_row()
            .add(static_cast<long long>(i))
            .add(r_peak.queue_growth_per_hour[i], 0);
        avg += r_peak.queue_growth_per_hour[i];
      }
      table.print(std::cout, false);
      std::printf("average growth: %.0f jobs/hour (paper: ~700 at the 5 s "
                  "peak rate)\n\n",
                  avg / static_cast<double>(peak.n_clusters));
    }

    // (2) Steady-state max queue size, ALL vs NONE.
    {
      util::Table table({"scheme", "avg max queue size", "replica submits",
                         "cancellations"});
      table.begin_row()
          .add("NONE")
          .add(r_none.avg_max_queue, 1)
          .add(static_cast<long long>(r_none.ops.submits))
          .add(static_cast<long long>(r_none.gateway_cancels));
      table.begin_row()
          .add("ALL")
          .add(r_all.avg_max_queue, 1)
          .add(static_cast<long long>(r_all.ops.submits))
          .add(static_cast<long long>(r_all.gateway_cancels));
      table.print(std::cout, false);
      const double rel =
          r_none.avg_max_queue > 0.0
              ? (r_all.avg_max_queue / r_none.avg_max_queue - 1.0) * 100.0
              : 0.0;
      std::printf("ALL vs NONE max queue: %+.0f%% (paper: < +2%% in steady "
                  "state; despite %.0fx more submissions, cancellations keep "
                  "the standing queue small)\n",
                  rel,
                  static_cast<double>(r_all.ops.submits) /
                      static_cast<double>(r_none.ops.submits));
    }
    bench::sweep_summary(sweep);
  });
}

// Table 1: relative average stretch and relative CV of stretches for the
// HALF scheme at N = 10 clusters, for EASY / CBF / FCFS and for exact vs
// over-estimated ("real") runtime requests. Paper: all entries below 1
// (0.83-0.93).
//
//   ./table1_algorithms [--reps=3|--full] [--hours=2] [--seed=42] + common.
//   (Default window is 2 h: CBF's profile compression is quadratic in
//   queue depth, so the 6 h figure window is expensive under it.)

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace rrsim;
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const int reps = bench::repetitions(cli, 3);
    core::ExperimentConfig base = core::figure_config();
    base.submit_horizon = 2.0 * 3600.0;
    base = core::apply_common_flags(base, cli);
    cli.reject_unread();
    bench::banner(
        "Table 1 - scheduling algorithms x runtime-estimate models",
        "HALF scheme, N=10; cells are relative to the NONE baseline; the\n"
        "paper reports 0.83-0.93 everywhere",
        reps);

    base.scheme = core::RedundancyScheme::half();

    struct Row {
      sched::Algorithm algo;
      const char* label;
    };
    const Row rows[] = {{sched::Algorithm::kEasy, "EASY"},
                        {sched::Algorithm::kCbf, "CBF"},
                        {sched::Algorithm::kFcfs, "FCFS"}};
    struct Col {
      const char* estimator;
      const char* label;
    };
    const Col cols[] = {{"exact", "Exact"}, {"uniform216", "Real"}};

    std::vector<std::vector<core::RelativeMetrics>> grid(
        3, std::vector<core::RelativeMetrics>(2));
    core::CampaignSweep sweep(reps);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t e = 0; e < 2; ++e) {
        core::ExperimentConfig c = base;
        c.algorithm = rows[i].algo;
        c.estimator = cols[e].estimator;
        sweep.add_relative(c, [&grid, i, e](const core::RelativeMetrics& m) {
          grid[i][e] = m;
        });
      }
    }
    sweep.run();

    util::Table table({"algorithm", "rel stretch (Exact)",
                       "rel stretch (Real)", "rel CV (Exact)",
                       "rel CV (Real)"});
    for (std::size_t i = 0; i < 3; ++i) {
      table.begin_row()
          .add(rows[i].label)
          .add(grid[i][0].rel_avg_stretch, 2)
          .add(grid[i][1].rel_avg_stretch, 2)
          .add(grid[i][0].rel_cv_stretch, 2)
          .add(grid[i][1].rel_cv_stretch, 2);
    }
    table.print(std::cout);
    bench::sweep_summary(sweep);
  });
}

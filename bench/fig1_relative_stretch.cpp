// Figure 1: average stretch of each redundant-request scheme relative to
// no redundancy, versus the number of clusters N in {2,3,4,5,10,20}.
// Paper's shape: redundancy is not beneficial for N <= 5 (up to ~10%
// worse) and beneficial for N > 5 (15-25% better), with higher redundancy
// degrees at least as good at large N. Also reports the win-rate rows the
// paper quotes in prose ("beneficial in >85/90/95% of experiments").
//
//   ./fig1_relative_stretch [--reps=3|--full] [--hours=6] [--algo=easy]
//                           [--seed=42] [--jobs=N] plus common flags.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace rrsim;
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const int reps = bench::repetitions(cli, 3);
    bench::banner(
        "Figure 1 - relative average stretch vs number of clusters",
        "values < 1: redundant requests improve the average stretch; the\n"
        "paper finds >1 for N<=5 and 0.75-0.95 for N>5",
        reps);

    core::ExperimentConfig base =
        core::apply_common_flags(core::figure_config(), cli);

    const std::vector<std::size_t> ns{2, 3, 4, 5, 10, 20};
    const std::vector<std::string> schemes{"R2", "R3", "R4", "HALF", "ALL"};

    // One sweep: every (N, scheme) point queued up front, all
    // (point x replication) units scheduled across one worker pool.
    std::vector<std::vector<core::RelativeMetrics>> grid(
        ns.size(), std::vector<core::RelativeMetrics>(schemes.size()));
    core::CampaignSweep sweep(reps);
    for (std::size_t i = 0; i < ns.size(); ++i) {
      for (std::size_t j = 0; j < schemes.size(); ++j) {
        core::ExperimentConfig c = base;
        c.n_clusters = ns[i];
        c.scheme = core::RedundancyScheme::parse(schemes[j]);
        sweep.add_relative(c, [&grid, i, j](const core::RelativeMetrics& m) {
          grid[i][j] = m;
        });
      }
    }
    sweep.run();

    util::Table table({"N", "R2", "R3", "R4", "HALF", "ALL"});
    util::Table wins({"N", "scheme", "win rate %", "worst ratio"});
    for (std::size_t i = 0; i < ns.size(); ++i) {
      table.begin_row().add(static_cast<long long>(ns[i]));
      for (std::size_t j = 0; j < schemes.size(); ++j) {
        const core::RelativeMetrics& rel = grid[i][j];
        table.add(rel.rel_avg_stretch, 3);
        if (ns[i] >= 10) {
          wins.begin_row()
              .add(static_cast<long long>(ns[i]))
              .add(schemes[j])
              .add(rel.win_rate * 100.0, 0)
              .add(rel.worst_rel_stretch, 3);
        }
      }
    }
    table.print(std::cout);
    std::printf("\nWin rates over the NONE baseline (paper: >85%% for N=10, "
                ">95%% for N=20):\n");
    wins.print(std::cout, false);
    bench::sweep_summary(sweep);
  });
}

// Figure 2: coefficient of variation of stretches (the paper's fairness
// metric) for each redundancy scheme relative to no redundancy, versus
// the number of clusters. The paper reports 0.75-0.9 across the board and
// notes the max-stretch fairness metric improves even more (10-60%); we
// print both columns (see EXPERIMENTS.md for the regime discussion).
//
//   ./fig2_relative_cv [--reps=3|--full] [--hours=6] [--seed=42] + common.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace rrsim;
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const int reps = bench::repetitions(cli, 3);
    core::ExperimentConfig base =
        core::apply_common_flags(core::figure_config(), cli);
    cli.reject_unread();
    bench::banner(
        "Figure 2 - relative CV of stretches (fairness) vs cluster count",
        "values < 1: redundant requests make the schedule fairer; columns\n"
        "'cv' = relative CV of stretches, 'max' = relative max stretch",
        reps);

    const std::vector<std::size_t> ns{2, 3, 4, 5, 10, 20};
    const std::vector<std::string> schemes{"R2", "R4", "HALF", "ALL"};

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

    util::Table table({"N", "R2 cv", "R2 max", "R4 cv", "R4 max", "HALF cv",
                       "HALF max", "ALL cv", "ALL max"});
    for (std::size_t i = 0; i < ns.size(); ++i) {
      table.begin_row().add(static_cast<long long>(ns[i]));
      for (std::size_t j = 0; j < schemes.size(); ++j) {
        table.add(grid[i][j].rel_cv_stretch, 3)
            .add(grid[i][j].rel_max_stretch, 3);
      }
    }
    table.print(std::cout);
    bench::sweep_summary(sweep);
  });
}

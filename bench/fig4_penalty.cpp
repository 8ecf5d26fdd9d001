// Figure 4: average stretch of jobs using redundant requests ("r jobs")
// and jobs not using them ("n-r jobs") versus the percentage p of jobs
// using redundancy, N = 10 clusters. Paper's shape: n-r jobs get worse
// roughly linearly in p (more so for higher-degree schemes), r jobs do
// much better than n-r jobs, and p=100 beats p=0 overall.
//
//   ./fig4_penalty [--reps=3|--full] [--seed=42] + common flags.

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
        "Figure 4 - stretch of r jobs vs n-r jobs vs percentage using "
        "redundancy",
        "N=10; 'r' = average stretch of jobs using redundant requests,\n"
        "'n-r' = jobs not using them; paper: n-r grows with p, r << n-r",
        reps);

    const std::vector<double> percents{0.0, 20.0, 40.0, 60.0, 80.0, 100.0};
    const std::vector<std::string> schemes{"R2", "R4", "HALF", "ALL"};

    std::vector<std::vector<core::ClassifiedCampaign>> grid(
        percents.size(),
        std::vector<core::ClassifiedCampaign>(schemes.size()));
    core::CampaignSweep sweep(reps);
    for (std::size_t i = 0; i < percents.size(); ++i) {
      for (std::size_t j = 0; j < schemes.size(); ++j) {
        core::ExperimentConfig c = base;
        c.scheme = core::RedundancyScheme::parse(schemes[j]);
        c.redundant_fraction = percents[i] / 100.0;
        sweep.add_classified(
            c, [&grid, i, j](const core::ClassifiedCampaign& m) {
              grid[i][j] = m;
            });
      }
    }
    sweep.run();

    util::Table table({"p %", "R2 r", "R2 n-r", "R4 r", "R4 n-r", "HALF r",
                       "HALF n-r", "ALL r", "ALL n-r"});
    for (std::size_t i = 0; i < percents.size(); ++i) {
      table.begin_row().add(percents[i], 0);
      for (std::size_t j = 0; j < schemes.size(); ++j) {
        table.add(grid[i][j].avg_stretch_redundant, 2)
            .add(grid[i][j].avg_stretch_non_redundant, 2);
      }
    }
    table.print(std::cout);
    bench::sweep_summary(sweep);
    std::printf("\n(zero cells mean the class is empty at that p)\n");
  });
}

// Figure 3: relative average stretch versus the mean job inter-arrival
// time, N = 10 clusters. The paper sweeps the gamma shape alpha from 4 to
// 20 (mean inter-arrival ~2-10 s of the system-wide model rate) and finds
// redundancy beneficial across the whole range. We sweep the same alpha
// values (scaled onto the shared-load regime's base rate; see DESIGN.md).
//
//   ./fig3_interarrival [--reps=3|--full] [--seed=42] + common flags.

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
        "Figure 3 - relative average stretch vs job inter-arrival time",
        "N=10 clusters; values < 1 mean redundancy helps at that load; the\n"
        "paper finds improvement across the whole sweep",
        reps);

    // The paper varies alpha in [4, 20] with beta fixed, i.e. the mean
    // inter-arrival spans [0.4, 2.0] x the base mean. We apply the same
    // relative sweep to the figure regime's base rate.
    const std::vector<double> alphas{4.0, 6.0, 10.23, 15.0, 20.0};
    const double base_mean = base.base_workload.mean_interarrival();

    const std::vector<std::string> schemes{"R2", "R3", "R4", "HALF", "ALL"};
    std::vector<std::vector<core::RelativeMetrics>> grid(
        alphas.size(), std::vector<core::RelativeMetrics>(schemes.size()));
    core::CampaignSweep sweep(reps);
    for (std::size_t i = 0; i < alphas.size(); ++i) {
      const double mean_iat = base_mean * alphas[i] / 10.23;
      for (std::size_t j = 0; j < schemes.size(); ++j) {
        core::ExperimentConfig c = base;
        c.base_workload.arrival_alpha = alphas[i];
        c.base_workload = c.base_workload.with_mean_interarrival(mean_iat);
        c.scheme = core::RedundancyScheme::parse(schemes[j]);
        sweep.add_relative(c, [&grid, i, j](const core::RelativeMetrics& m) {
          grid[i][j] = m;
        });
      }
    }
    sweep.run();

    util::Table table({"alpha", "mean iat (s, system)", "R2", "R3", "R4",
                       "HALF", "ALL"});
    for (std::size_t i = 0; i < alphas.size(); ++i) {
      table.begin_row().add(alphas[i], 2).add(base_mean * alphas[i] / 10.23,
                                              2);
      for (std::size_t j = 0; j < schemes.size(); ++j) {
        table.add(grid[i][j].rel_avg_stretch, 3);
      }
    }
    table.print(std::cout);
    bench::sweep_summary(sweep);
  });
}

// Table 2: relative average stretch and CV when redundant requests pick
// remote clusters with a heavily biased distribution — cluster C1 twice
// as likely as C2, which is twice as likely as C3, and so on (half the
// clusters are each picked with only ~6% probability). Paper: still
// beneficial (0.88-0.95 stretch, 0.86-0.94 CV), similar to uniform.
//
//   ./table2_biased_placement [--reps=3|--full] [--seed=42] + common.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace rrsim;
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const int reps = bench::repetitions(cli, 3);
    bench::banner(
        "Table 2 - non-uniformly distributed redundant requests",
        "N=10, geometrically biased remote-cluster choice; values < 1 mean\n"
        "redundancy is beneficial despite the bias (paper: 0.86-0.95)",
        reps);

    core::ExperimentConfig base =
        core::apply_common_flags(core::figure_config(), cli);
    base.placement = "biased";

    const std::vector<std::string> schemes{"R2", "R3", "R4", "HALF"};
    std::vector<core::RelativeMetrics> results(schemes.size());
    core::CampaignSweep sweep(reps);
    for (std::size_t j = 0; j < schemes.size(); ++j) {
      core::ExperimentConfig c = base;
      c.scheme = core::RedundancyScheme::parse(schemes[j]);
      sweep.add_relative(c, [&results, j](const core::RelativeMetrics& m) {
        results[j] = m;
      });
    }
    sweep.run();

    util::Table table({"metric", "R2", "R3", "R4", "HALF"});
    table.begin_row().add("Relative Average Stretch");
    for (const core::RelativeMetrics& m : results) {
      table.add(m.rel_avg_stretch, 2);
    }
    table.begin_row().add("Relative C.V. of Stretches");
    for (const core::RelativeMetrics& m : results) {
      table.add(m.rel_cv_stretch, 2);
    }
    table.print(std::cout);
    bench::sweep_summary(sweep);
  });
}

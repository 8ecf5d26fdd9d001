// Table 3: heterogeneous platforms. N = 10 clusters whose sizes are drawn
// from {16, 32, 64, 128, 256} and whose job streams have per-cluster mean
// inter-arrival times drawn from the paper's [2, 20] s range (scaled by N
// onto the shared-load regime; see DESIGN.md). Jobs are sized to their
// origin cluster and replicas go only where they fit. Paper: redundancy
// is MORE beneficial than in the homogeneous case (stretch 0.63-0.83, CV
// 0.79-0.90), improving with the redundancy degree.
//
//   ./table3_heterogeneous [--reps=3|--full] [--seed=42] + common flags.

#include "bench_common.h"
#include "rrsim/util/rng.h"

int main(int argc, char** argv) {
  using namespace rrsim;
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const int reps = bench::repetitions(cli, 3);
    core::ExperimentConfig base =
        core::apply_common_flags(core::figure_config(), cli);
    // --iat-scale multiplies the paper's [2, 20] s per-cluster
    // inter-arrival draws; the default of 2 keeps the mixed platform in
    // the persistent-queueing regime where the relative CV lands in the
    // paper's band.
    const double iat_scale = cli.get_double("iat-scale", 2.0);
    cli.reject_unread();
    bench::banner(
        "Table 3 - heterogeneous platforms (sizes 16..256, varied rates)",
        "N=10; values < 1 mean redundancy beneficial; the paper finds\n"
        "stronger gains than the homogeneous case (0.63-0.83)",
        reps);

    // Platform drawn once from the experiment seed, as in the paper; the
    // repetitions vary the job streams on this platform.
    util::Rng rng(base.seed ^ 0x7e7e7e7eULL);
    const int size_choices[] = {16, 32, 64, 128, 256};
    base.cluster_nodes.clear();
    base.cluster_mean_iat.clear();
    for (std::size_t i = 0; i < base.n_clusters; ++i) {
      base.cluster_nodes.push_back(size_choices[rng.below(5)]);
      base.cluster_mean_iat.push_back(rng.uniform(2.0, 20.0) * iat_scale);
    }
    std::printf("platform:");
    for (std::size_t i = 0; i < base.n_clusters; ++i) {
      std::printf(" %d@%.0fs", base.cluster_nodes[i],
                  base.cluster_mean_iat[i]);
    }
    std::printf("\n\n");

    const std::vector<std::string> schemes{"R2", "R3", "R4", "HALF", "ALL"};
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

    util::Table table(
        {"scheme", "Relative Average Stretch", "Relative C.V. of Stretches"});
    for (std::size_t j = 0; j < schemes.size(); ++j) {
      table.begin_row()
          .add(schemes[j])
          .add(results[j].rel_avg_stretch, 2)
          .add(results[j].rel_cv_stretch, 2);
    }
    table.print(std::cout);
    bench::sweep_summary(sweep);
  });
}

// Multi-site redundancy study (the paper's Fig 1 setup, one scheme):
// simulate N clusters, with every job sending redundant requests under a
// chosen scheme, and report schedule metrics relative to the same streams
// scheduled without redundancy.
//
//   ./grid_campaign [--clusters=10] [--scheme=HALF] [--reps=5] [--hours=6]
//                   [--load=shared|peak|util] [--algo=easy] [--seed=1]
//                   [--jobs=N]  (campaign worker threads; also RRSIM_JOBS)

#include <cstdio>
#include <exception>
#include <limits>

#include "rrsim/core/campaign.h"
#include "rrsim/core/options.h"
#include "rrsim/util/cli.h"

int main(int argc, char** argv) {
  try {
    const rrsim::util::Cli cli(argc, argv);

    rrsim::core::ExperimentConfig config;
    config.scheme = rrsim::core::RedundancyScheme::half();
    config = rrsim::core::apply_common_flags(config, cli);
    const int reps = static_cast<int>(
        cli.get_int_in("reps", 5, 1, std::numeric_limits<int>::max()));
    cli.reject_unread();

    std::printf("grid campaign: %zu clusters, scheme %s, %d repetitions\n",
                config.n_clusters, config.scheme.name().c_str(), reps);
    const rrsim::core::RelativeMetrics rel =
        rrsim::core::run_relative_campaign(config, reps);
    std::printf("  relative average stretch : %.3f  (< 1 means redundancy "
                "helps)\n", rel.rel_avg_stretch);
    std::printf("  relative CV of stretches : %.3f  (< 1 means fairer)\n",
                rel.rel_cv_stretch);
    std::printf("  relative max stretch     : %.3f\n", rel.rel_max_stretch);
    std::printf("  relative turnaround      : %.3f\n",
                rel.rel_avg_turnaround);
    std::printf("  win rate over baseline   : %.0f %%\n",
                rel.win_rate * 100.0);
    std::printf("  worst repetition ratio   : %.3f\n",
                rel.worst_rel_stretch);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// Fairness probe (the paper's Fig 4 question): when only a fraction p of
// jobs use redundant requests, how much better off are they — and how
// much worse off is everyone else?
//
//   ./fairness_probe [--clusters=10] [--scheme=ALL] [--percent=40]
//                    [--reps=3] [--hours=6] [--seed=7]

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
    config.scheme = rrsim::core::RedundancyScheme::all();
    config.redundant_fraction = 0.4;
    config.seed = 7;
    config = rrsim::core::apply_common_flags(config, cli);
    const int reps = static_cast<int>(
        cli.get_int_in("reps", 3, 1, std::numeric_limits<int>::max()));
    cli.reject_unread();

    std::printf(
        "fairness probe: %zu clusters, scheme %s, %.0f %% of jobs redundant\n",
        config.n_clusters, config.scheme.name().c_str(),
        config.redundant_fraction * 100.0);
    const rrsim::core::ClassifiedCampaign res =
        rrsim::core::run_classified_campaign(config, reps);
    std::printf("  avg stretch, jobs using redundancy   : %.2f  (%zu jobs)\n",
                res.avg_stretch_redundant, res.redundant_jobs);
    std::printf("  avg stretch, jobs NOT using it       : %.2f  (%zu jobs)\n",
                res.avg_stretch_non_redundant, res.non_redundant_jobs);
    std::printf("  avg stretch, all jobs                : %.2f\n",
                res.avg_stretch_all);
    if (res.avg_stretch_redundant > 0.0) {
      std::printf("  advantage factor (n-r / r)           : %.2f\n",
                  res.avg_stretch_non_redundant / res.avg_stretch_redundant);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// Capacity planning: how much request redundancy can YOUR site tolerate?
// Measures this machine's front-end throughput curve (the Fig 5
// protocol), fits the exponential-decay model, then combines it with a
// middleware rating to answer the paper's Section 4 question for a range
// of job arrival rates.
//
//   ./capacity_planning [--pairs=500] [--queue-depth=10000]
//                       [--gram-rate=0.5] [--seed=5]

#include <cstdio>
#include <exception>
#include <limits>

#include "rrsim/loadmodel/capacity.h"
#include "rrsim/loadmodel/frontend.h"
#include "rrsim/util/cli.h"
#include "rrsim/util/rng.h"

int main(int argc, char** argv) {
  try {
    const rrsim::util::Cli cli(argc, argv);
    const int pairs = static_cast<int>(
        cli.get_int_in("pairs", 500, 1, std::numeric_limits<int>::max()));
    const double depth = cli.get_double("queue-depth", 10000.0);
    const double gram = cli.get_double("gram-rate", 0.5);
    rrsim::util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 5)));
    cli.reject_unread();

    std::printf("capacity planning: measuring the local front-end...\n");
    const auto points = rrsim::loadmodel::measure_throughput(
        16, {0, 5000, 10000, 20000}, pairs, rng);
    std::vector<std::pair<double, double>> fit_points;
    for (const auto& p : points) {
      std::printf("  queue %6zu : %8.0f submit+cancel pairs/s\n",
                  p.queue_size, p.pairs_per_sec);
      fit_points.emplace_back(static_cast<double>(p.queue_size),
                              p.pairs_per_sec);
    }
    const rrsim::loadmodel::ExpDecayModel model =
        rrsim::loadmodel::fit_exp_decay(fit_points);
    std::printf("fitted: floor %.0f + %.0f * exp(-q/%.0f)\n\n",
                model.floor(), model.amplitude(), model.scale());

    std::printf("sustainable redundancy r per job (scheduler measured at a "
                "%.0f-deep queue,\nmiddleware %.2f+%.2f ops/s):\n",
                depth, gram, gram);
    const rrsim::loadmodel::ServiceRates middleware{gram, gram};
    for (const double iat : {1.0, 5.0, 15.0, 60.0}) {
      const auto report = rrsim::loadmodel::analyze_capacity(
          model, depth, middleware, iat);
      std::printf("  one job every %5.1f s : scheduler %6d, middleware %3d "
                  "-> system limit %d (%s-bound)\n",
                  iat, report.scheduler_max_r, report.middleware_max_r,
                  report.system_max_r,
                  report.middleware_is_bottleneck ? "middleware"
                                                  : "scheduler");
    }
    std::printf("\n(the paper's 2006-era numbers gave 30 and 2 at a 5 s "
                "inter-arrival; your\nfront-end is faster, the middleware "
                "rating is what you configure)\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// Figure 5: measured batch-scheduler front-end throughput (submit+cancel
// pairs per second) versus queue depth. The paper saturated OpenPBS/Maui
// on a 1 GHz Pentium III with qsub/qdel pairs at queue depths up to
// 20,000 and observed ~11 -> ~5 ops/s decay. We run the same protocol
// against rrsim's in-process front-end (real wall-clock measurement, one
// Maui-style scheduling iteration per operation) — absolute numbers are
// far higher, the decaying shape is the reproduced result. The fitted
// exponential-decay parameters and the paper-calibrated model are printed
// for comparison.
//
//   ./fig5_frontend_throughput [--pairs=2000] [--runs=4] [--seed=11]

#include <cstdint>
#include <limits>

#include "bench_common.h"
#include "rrsim/loadmodel/frontend.h"
#include "rrsim/loadmodel/throughput_model.h"
#include "rrsim/util/rng.h"

int main(int argc, char** argv) {
  using namespace rrsim;
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    const int pairs =
        static_cast<int>(cli.get_int_in("pairs", 2000, 1, kIntMax));
    const int runs = static_cast<int>(cli.get_int_in("runs", 4, 1, kIntMax));
    util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 11)));
    std::printf("=== Figure 5 - front-end submit/cancel throughput vs queue "
                "size ===\n");
    std::printf("measured on this machine against rrsim's front-end; the\n"
                "paper's OpenPBS/Maui decays ~11 -> ~5 ops/s over the same "
                "depths\n\n");

    const std::vector<std::size_t> depths{0, 2500, 5000, 10000, 15000, 20000};
    std::vector<std::vector<loadmodel::ThroughputPoint>> all_runs;
    for (int r = 0; r < runs; ++r) {
      all_runs.push_back(
          loadmodel::measure_throughput(16, depths, pairs, rng));
    }

    std::vector<std::string> headers{"queue size"};
    for (int r = 0; r < runs; ++r) {
      headers.push_back("run" + std::to_string(r + 1) + " pairs/s");
    }
    headers.push_back("average");
    util::Table table(headers);
    std::vector<std::pair<double, double>> avg_points;
    for (std::size_t d = 0; d < depths.size(); ++d) {
      table.begin_row().add(static_cast<long long>(depths[d]));
      double sum = 0.0;
      for (int r = 0; r < runs; ++r) {
        const double v = all_runs[static_cast<std::size_t>(r)][d].pairs_per_sec;
        table.add(v, 0);
        sum += v;
      }
      const double avg = sum / runs;
      table.add(avg, 0);
      avg_points.emplace_back(static_cast<double>(depths[d]), avg);
    }
    table.print(std::cout);

    const loadmodel::ExpDecayModel fit = loadmodel::fit_exp_decay(avg_points);
    const loadmodel::ExpDecayModel paper =
        loadmodel::ExpDecayModel::paper_calibrated();
    std::printf("\nexp-decay fit of the measurements: floor=%.0f "
                "amplitude=%.0f scale=%.0f (pairs/s)\n",
                fit.floor(), fit.amplitude(), fit.scale());
    std::printf("paper-calibrated model (ops/s each way): floor=%.2f "
                "amplitude=%.2f scale=%.0f -> %.1f @0, %.1f @10k, %.1f "
                "@20k\n",
                paper.floor(), paper.amplitude(), paper.scale(),
                paper.at(0.0), paper.at(10000.0), paper.at(20000.0));
    const double ratio0 = fit.at(0.0) / fit.at(20000.0);
    std::printf("measured decay factor empty->20k: %.2fx (paper: ~%.2fx)\n",
                ratio0, paper.at(0.0) / paper.at(20000.0));
  });
}

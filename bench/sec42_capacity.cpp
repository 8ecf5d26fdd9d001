// Section 4.1/4.2 capacity analysis: how many redundant requests per job
// the batch scheduler and the grid middleware each sustain, as a function
// of the job inter-arrival time. Paper's conclusions at iat = 5 s:
// scheduler r <= 30 (from 6+6 ops/s at a 10,000-deep queue), GT4 WS-GRAM
// middleware r < 3 — the middleware is the system bottleneck.
//
//   ./sec42_capacity [--queue-depth=10000] [--gram-rate=0.5]

#include "bench_common.h"
#include "rrsim/loadmodel/capacity.h"

int main(int argc, char** argv) {
  using namespace rrsim;
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const double depth = cli.get_double("queue-depth", 10000.0);
    const double gram = cli.get_double("gram-rate", 0.5);
    cli.reject_unread();
    std::printf("=== Section 4 - sustainable redundancy before each layer "
                "saturates ===\n");
    std::printf("scheduler model: Fig 5 calibration evaluated at a "
                "%.0f-deep queue; middleware: %.2f submits/s + %.2f "
                "cancels/s (GT4 WS-GRAM)\n\n",
                depth, gram, gram);

    const loadmodel::ExpDecayModel sched_model =
        loadmodel::ExpDecayModel::paper_calibrated();
    const loadmodel::ServiceRates middleware{gram, gram};

    util::Table table({"mean iat (s)", "scheduler max r", "middleware max r",
                       "system max r", "bottleneck"});
    for (const double iat : {1.0, 2.0, 5.0, 10.0, 30.0, 60.0}) {
      const loadmodel::CapacityReport rep =
          loadmodel::analyze_capacity(sched_model, depth, middleware, iat);
      table.begin_row()
          .add(iat, 0)
          .add(static_cast<long long>(rep.scheduler_max_r))
          .add(static_cast<long long>(rep.middleware_max_r))
          .add(static_cast<long long>(rep.system_max_r))
          .add(rep.middleware_is_bottleneck ? "middleware" : "scheduler");
    }
    table.print(std::cout);
    std::printf("\npaper reference at iat=5 s: scheduler 30, middleware "
                "\"under 3\"\n");
  });
}

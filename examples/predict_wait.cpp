// Queue-wait prediction demo (Section 5 machinery): drive a CBF-scheduled
// cluster by hand, submit a probe job, and compare the reservation-based
// prediction against what actually happens when earlier jobs finish
// before their requested times.
//
//   ./predict_wait [--nodes=64] [--overestimate=2.16]

#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>

#include "rrsim/des/simulation.h"
#include "rrsim/sched/cbf.h"
#include "rrsim/util/cli.h"

int main(int argc, char** argv) {
  try {
    const rrsim::util::Cli cli(argc, argv);
    const int nodes = static_cast<int>(
        cli.get_int_in("nodes", 64, 1, std::numeric_limits<int>::max()));
    const double over = cli.get_double("overestimate", 2.16);
    if (over < 1.0) throw std::invalid_argument("--overestimate must be >= 1");

    rrsim::des::Simulation sim;
    rrsim::sched::CbfScheduler cbf(sim, nodes);

    // A wall of work: four jobs that each occupy the whole cluster for a
    // *requested* hour but actually run only 1/overestimate of it.
    for (rrsim::sched::JobId id = 1; id <= 4; ++id) {
      rrsim::sched::Job job;
      job.id = id;
      job.nodes = nodes;
      job.requested_time = 3600.0;
      job.actual_time = 3600.0 / over;
      cbf.submit(job);
    }

    // The probe: a small job submitted now. CBF reserves it a slot after
    // the wall (based on requested times) — that reservation is the
    // prediction a user would be given.
    rrsim::sched::Job probe;
    probe.id = 99;
    probe.nodes = nodes / 2 + 1;  // cannot backfill beside the wall
    probe.requested_time = 600.0;
    probe.actual_time = 600.0;
    cbf.submit(probe);

    const auto predicted = cbf.predicted_start_at_submit(99);
    double actual_start = -1.0;
    rrsim::sched::ClusterScheduler::Callbacks cb;
    cb.on_start = [&](const rrsim::sched::Job& j) {
      if (j.id == 99) actual_start = j.start_time;
    };
    cbf.set_callbacks(std::move(cb));

    sim.run();

    std::printf("predict_wait: %d-node cluster, CBF, overestimation %.2fx\n",
                nodes, over);
    std::printf("  predicted start of probe : %.0f s\n",
                predicted.value_or(-1.0));
    std::printf("  actual start of probe    : %.0f s\n", actual_start);
    if (actual_start > 0.0 && predicted) {
      std::printf("  over-prediction factor   : %.2f\n",
                  *predicted / actual_start);
      std::printf("(requested times are conservative, so queue-based "
                  "predictions are, too — the paper's Section 5 effect)\n");
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// Replay a Standard Workload Format trace through one of rrsim's
// schedulers — the workflow used to cross-check model results against
// Parallel Workloads Archive logs. Without --trace, a synthetic trace is
// generated with the Lublin model, written to disk, read back, and
// replayed (demonstrating the full SWF round trip).
//
//   ./swf_replay [--trace=path.swf] [--nodes=128] [--algo=easy]
//                [--hours=2] [--seed=3]

#include <cstdio>
#include <exception>
#include <limits>

#include "rrsim/des/simulation.h"
#include "rrsim/metrics/record.h"
#include "rrsim/metrics/summary.h"
#include "rrsim/sched/factory.h"
#include "rrsim/util/cli.h"
#include "rrsim/workload/calibrate.h"
#include "rrsim/workload/lublin.h"
#include "rrsim/workload/swf.h"

int main(int argc, char** argv) {
  try {
    const rrsim::util::Cli cli(argc, argv);
    const int nodes = static_cast<int>(
        cli.get_int_in("nodes", 128, 1, std::numeric_limits<int>::max()));
    const auto algo =
        rrsim::sched::parse_algorithm(cli.get_string("algo", "easy"));

    rrsim::workload::JobStream stream;
    if (cli.has("trace")) {
      stream = rrsim::workload::read_swf_file(cli.get_string("trace", ""));
      std::printf("swf_replay: %zu jobs from %s\n", stream.size(),
                  cli.get_string("trace", "").c_str());
    } else {
      rrsim::util::Rng rng(
          static_cast<std::uint64_t>(cli.get_int("seed", 3)));
      auto params = rrsim::workload::calibrate_params(
          rrsim::workload::LublinParams{}, nodes, 0.9, rng);
      const rrsim::workload::LublinModel model(params, nodes);
      stream = model.generate_stream(rng, cli.get_double("hours", 2.0) * 3600.0);
      rrsim::workload::write_swf_file("generated.swf", stream);
      stream = rrsim::workload::read_swf_file("generated.swf");
      std::printf("swf_replay: %zu synthetic jobs (round-tripped via "
                  "generated.swf)\n", stream.size());
    }

    rrsim::des::Simulation sim;
    auto scheduler = rrsim::sched::make_scheduler(algo, sim, nodes);
    rrsim::metrics::JobRecords records;
    rrsim::sched::ClusterScheduler::Callbacks cb;
    cb.on_finish = [&records](const rrsim::sched::Job& j) {
      rrsim::metrics::JobRecord r;
      r.grid_id = j.id;
      r.nodes = j.nodes;
      r.submit_time = j.submit_time;
      r.start_time = j.start_time;
      r.finish_time = j.finish_time;
      r.actual_time = j.actual_time;
      r.requested_time = j.requested_time;
      records.push_back(r);
    };
    scheduler->set_callbacks(std::move(cb));

    rrsim::sched::JobId next_id = 1;
    for (const auto& spec : stream) {
      if (spec.nodes > nodes) continue;  // trace job too wide for cluster
      rrsim::sched::Job job;
      job.id = next_id++;
      job.nodes = spec.nodes;
      job.requested_time = spec.requested_time;
      job.actual_time = spec.runtime;
      sim.schedule_at(
          spec.submit_time,
          [&s = *scheduler, job] { s.submit(job); },
          rrsim::des::Priority::kArrival);
    }
    sim.run();

    const auto m = rrsim::metrics::compute_metrics(records);
    std::printf("  replayed %zu jobs on %d nodes with %s\n", m.jobs, nodes,
                scheduler->name().c_str());
    std::printf("  average stretch : %.3f   CV %.1f %%   max %.1f\n",
                m.avg_stretch, m.cv_stretch_percent, m.max_stretch);
    std::printf("  average wait    : %.1f s\n", m.avg_wait);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

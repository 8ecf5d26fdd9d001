// Extension (paper §2, option (iv)): moldable jobs submit redundant
// requests with *different node counts* to their own cluster's queue and
// keep whichever starts first — dodging the classic conundrum ("wait
// long for many nodes, or start sooner on few?") without choosing.
// The paper defers this option to future work; here it is measured on a
// single busy cluster with an Amdahl speedup model.
//
//   ./ext_moldable [--nodes=128] [--hours=6] [--shapes=3] [--seed=42]

#include <limits>
#include <memory>

#include "bench_common.h"
#include "rrsim/grid/gateway.h"
#include "rrsim/grid/platform.h"
#include "rrsim/workload/calibrate.h"
#include "rrsim/workload/moldable.h"

int main(int argc, char** argv) {
  using namespace rrsim;
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const int nodes = static_cast<int>(
        cli.get_int_in("nodes", 128, 1, std::numeric_limits<int>::max()));
    const double hours = cli.get_double("hours", 6.0);
    const int max_shapes = static_cast<int>(
        cli.get_int_in("shapes", 3, 1, std::numeric_limits<int>::max()));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    std::printf("=== Extension - moldable redundant requests (option iv) "
                "===\n");
    std::printf("one %d-node cluster at ~95%% load, EASY; each moldable job "
                "submits\nup to K shape variants (n, n/2, 2n, ...) to the "
                "same queue and keeps\nthe first to start\n\n", nodes);

    // One workload, replayed for each K so rows are directly comparable.
    util::Rng rng(seed);
    const workload::LublinParams params = workload::calibrate_params(
        workload::LublinParams{}, nodes, 0.95, rng);
    const workload::LublinModel model(params, nodes);
    util::Rng stream_rng(seed + 1);
    const workload::JobStream stream =
        model.generate_stream(stream_rng, hours * 3600.0);
    // Per-job parallel fractions (how well each job scales).
    util::Rng frac_rng(seed + 2);
    std::vector<double> parallel_fraction;
    parallel_fraction.reserve(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      parallel_fraction.push_back(frac_rng.uniform(0.5, 0.98));
    }

    // Each shape-count K is one custom work unit on the sweep pool; the
    // unit builds its own single-cluster world (the shared experiment
    // workspace models the paper's multi-cluster grid, not this one).
    struct Row {
      double avg_stretch = 0.0;
      double avg_turnaround = 0.0;
      double avg_wait = 0.0;
      double nodes_used = 0.0;
    };
    std::vector<Row> rows(static_cast<std::size_t>(max_shapes));
    core::CampaignSweep sweep(1);
    sweep.runner().add(
        max_shapes,
        [&stream, &parallel_fraction, nodes](int unit) {
          const int k = unit + 1;
          des::Simulation sim;
          grid::Platform platform(sim, std::vector<int>(1, nodes),
                                  sched::Algorithm::kEasy);
          grid::Gateway gateway(platform);
          std::vector<grid::GridJob> jobs;
          jobs.reserve(stream.size());
          grid::GridJobId id = 1;
          for (std::size_t i = 0; i < stream.size(); ++i) {
            const workload::AmdahlSpeedup speedup(parallel_fraction[i]);
            const auto shapes =
                workload::moldable_shapes(stream[i], speedup, nodes, k);
            grid::GridJob job;
            job.id = id++;
            job.origin = 0;
            job.spec = stream[i];
            job.targets.assign(shapes.size(), 0);
            job.redundant = shapes.size() > 1;
            for (const workload::JobShape& s : shapes) {
              workload::JobSpec spec;
              spec.nodes = s.nodes;
              spec.runtime = s.runtime;
              spec.requested_time = s.requested_time;
              job.replica_specs.push_back(spec);
            }
            jobs.push_back(std::move(job));
          }
          for (const grid::GridJob& job : jobs) {
            sim.schedule_at(job.spec.submit_time,
                            [&gateway, &job] { gateway.submit(job); },
                            des::Priority::kArrival);
          }
          sim.run();
          const auto m = metrics::compute_metrics(gateway.records());
          Row row;
          row.avg_stretch = m.avg_stretch;
          row.avg_turnaround = m.avg_turnaround;
          row.avg_wait = m.avg_wait;
          for (const auto& rec : gateway.records()) {
            row.nodes_used += rec.nodes;
          }
          row.nodes_used /=
              static_cast<double>(gateway.records().size());
          return row;
        },
        [&rows](int unit, Row row) {
          rows[static_cast<std::size_t>(unit)] = row;
        });
    sweep.run();

    util::Table table({"shape variants", "avg stretch", "avg turnaround (s)",
                       "avg wait (s)", "avg nodes used"});
    for (int k = 1; k <= max_shapes; ++k) {
      const Row& row = rows[static_cast<std::size_t>(k - 1)];
      table.begin_row()
          .add(static_cast<long long>(k))
          .add(row.avg_stretch, 2)
          .add(row.avg_turnaround, 0)
          .add(row.avg_wait, 0)
          .add(row.nodes_used, 1);
    }
    table.print(std::cout);
    bench::sweep_summary(sweep);
    std::printf("\n(stretch is measured against each job's *winning* shape "
                "runtime;\nmore variants = earlier starts, often on fewer "
                "nodes)\n");
  });
}

// Conservative-PDES kernel benchmark and perf record.
//
// Runs the paper's base experiment on the parallel kernel (--pdes) over a
// grid of (clusters, cross-cluster latency, worker count) cells. Every
// cell is timed by bench::time_repeatable, so no cell is timed cold and
// every run of a cell must reproduce its record trace. Per (clusters,
// latency) pair the jobs=1 cell is the sequential reference: every jobs>1
// cell must produce a bit-identical trace (checksum equality is enforced
// — a mismatch aborts the benchmark before anything is written, because a
// parallel kernel that changes results is wrong, not slow), and its
// speedup over the reference is recorded as a ratio of medians with the
// ratio of the extremes beside it. Results land in BENCH_pdes.json with
// the execution environment; on a single-hardware-thread machine the
// speedups are null with a note instead of a meaningless ratio.
//
//   ./micro_pdes [--hours=0.5] [--out=BENCH_pdes.json] plus common flags.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "rrsim/core/experiment.h"

namespace {

using namespace rrsim;

constexpr std::size_t kClusters[] = {4, 8};
constexpr double kLatencies[] = {1.0, 60.0};
constexpr int kJobs[] = {1, 2, 4};

/// What a cell's run produced; every run of every worker count of one
/// (clusters, latency) pair must produce the same.
struct CellOutput {
  std::uint64_t checksum = 0;
  std::uint64_t windows = 0;
  std::uint64_t duplicate_starts = 0;
  std::uint64_t jobs_generated = 0;
  bool operator==(const CellOutput&) const = default;
};

struct Cell {
  std::size_t clusters = 0;
  double latency = 0.0;
  int jobs = 0;
  bench::Timing t;
  CellOutput out;
};

std::uint64_t trace_checksum(const metrics::JobRecords& records) {
  std::uint64_t checksum = 1469598103934665603ULL;
  const auto mix = [&checksum](std::uint64_t v) {
    checksum = (checksum * 6364136223846793005ULL) ^ v;
  };
  const auto bits = [](double d) {
    std::uint64_t v = 0;
    std::memcpy(&v, &d, sizeof v);
    return v;
  };
  for (const metrics::JobRecord& r : records) {
    mix(r.grid_id);
    mix(static_cast<std::uint64_t>(r.winner_cluster));
    mix(static_cast<std::uint64_t>(r.replicas_delivered));
    mix(bits(r.submit_time));
    mix(bits(r.start_time));
    mix(bits(r.finish_time));
  }
  return checksum;
}

Cell run_cell(core::ExperimentConfig config, std::size_t clusters,
              double latency, int jobs) {
  config.n_clusters = clusters;
  config.pdes = true;
  config.cross_cluster_latency = latency;
  config.pdes_jobs = jobs;
  const auto [t, out] = bench::time_repeatable(
      "PDES cell clusters=" + std::to_string(clusters) +
          " latency=" + std::to_string(latency) +
          " jobs=" + std::to_string(jobs),
      [&config] {
        const core::SimResult result = core::run_experiment(config);
        return CellOutput{trace_checksum(result.records),
                          result.pdes_windows, result.duplicate_starts,
                          result.jobs_generated};
      });
  return Cell{clusters, latency, jobs, t, out};
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const std::string out_path = cli.get_string("out", "BENCH_pdes.json");

    core::ExperimentConfig base = core::figure_config();
    base.submit_horizon = 0.5 * 3600.0;
    base.scheme = core::RedundancyScheme::parse("ALL");
    base = core::apply_common_flags(base, cli);
    cli.reject_unread();

    std::printf("=== micro_pdes - conservative parallel kernel ===\n");
    std::printf(
        "clusters x latency x workers grid; per (clusters, latency) the\n"
        "jobs=1 run is the sequential reference and every jobs>1 trace\n"
        "must match it bit-exactly (checksum-enforced); seconds are the\n"
        "median of %d timed runs after a warm-up, [min, max] beside them\n\n",
        bench::kTimedRuns);

    std::vector<Cell> cells;
    for (const std::size_t clusters : kClusters) {
      for (const double latency : kLatencies) {
        const std::size_t reference = cells.size();
        for (const int jobs : kJobs) {
          cells.push_back(run_cell(base, clusters, latency, jobs));
          const Cell& c = cells.back();
          if (!(c.out == cells[reference].out)) {
            throw std::runtime_error(
                "determinism violation: PDES trace with jobs=" +
                std::to_string(jobs) + " diverged from the sequential "
                "reference at clusters=" + std::to_string(clusters) +
                " latency=" + std::to_string(latency));
          }
          std::printf(
              "  clusters=%zu latency=%5.1fs jobs=%d : %7.4f s  [%.4f, "
              "%.4f]  (speedup %.2fx, %llu windows, %llu duplicate "
              "starts)\n",
              clusters, latency, jobs, c.t.median, c.t.min, c.t.max,
              cells[reference].t.median / c.t.median,
              static_cast<unsigned long long>(c.out.windows),
              static_cast<unsigned long long>(c.out.duplicate_starts));
        }
      }
    }

    bench::JsonWriter w =
        bench::begin_record("micro_pdes", exec::default_jobs());
    w.key("cells").begin_array();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      // Each pair's jobs=1 cell opens its run of kJobs cells.
      const Cell& reference = cells[i - i % std::size(kJobs)];
      w.begin_object();
      w.field("clusters", c.clusters).field("latency_s", c.latency, 3);
      w.field("jobs", c.jobs).field("jobs_generated", c.out.jobs_generated);
      w.field("seconds", c.t);
      w.field("windows", c.out.windows);
      w.field("duplicate_starts", c.out.duplicate_starts);
      w.field("trace_checksum", bench::hex64(c.out.checksum));
      if (c.jobs > 1) {
        w.parallel_speedup("speedup_vs_one_worker", reference.t, c.t);
        w.field("matches_sequential_trace", true);
      }
      w.end_object();
    }
    w.end_array();
    w.field("deterministic_across_workers", true).end_object();
    bench::finish_record(w, out_path);
  });
}

// Conservative-PDES kernel benchmark and perf record.
//
// Runs the paper's base experiment on the parallel kernel (--pdes) over a
// grid of (clusters, cross-cluster latency, worker count) cells. For each
// (clusters, latency) pair the jobs=1 run is the sequential reference:
// every jobs>1 run must produce a bit-identical record trace (checksum
// equality is enforced — a mismatch aborts the benchmark, because a
// parallel kernel that changes results is wrong, not slow), and its
// speedup over the reference is recorded. Results land in BENCH_pdes.json
// with the execution environment; on a single-hardware-thread machine the
// speedup fields are null with a note instead of a meaningless ratio.
//
//   ./micro_pdes [--hours=0.5] [--out=BENCH_pdes.json] plus common flags.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "rrsim/core/experiment.h"

namespace {

using namespace rrsim;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kClusters[] = {4, 8};
constexpr double kLatencies[] = {1.0, 60.0};
constexpr int kJobs[] = {1, 2, 4};

struct CellRun {
  double elapsed = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t windows = 0;
  std::uint64_t duplicate_starts = 0;
  std::uint64_t messages = 0;  // jobs_generated stand-in for scale
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

CellRun run_cell(core::ExperimentConfig config, std::size_t clusters,
                 double latency, int jobs) {
  config.n_clusters = clusters;
  config.pdes = true;
  config.cross_cluster_latency = latency;
  config.pdes_jobs = jobs;
  const auto start = Clock::now();
  const core::SimResult result = core::run_experiment(config);
  CellRun run;
  run.elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  run.checksum = trace_checksum(result.records);
  run.windows = result.pdes_windows;
  run.duplicate_starts = result.duplicate_starts;
  run.messages = result.jobs_generated;
  return run;
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
    // The grid below owns these three knobs.
    base.pdes = true;

    std::printf("=== micro_pdes - conservative parallel kernel ===\n");
    std::printf(
        "clusters x latency x workers grid; per (clusters, latency) the\n"
        "jobs=1 run is the sequential reference and every jobs>1 trace\n"
        "must match it bit-exactly (checksum-enforced)\n\n");

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("cannot open " + out_path);
    }
    std::fprintf(f, "{\n  \"benchmark\": \"micro_pdes\",\n");
    bench::write_json_env_fields(f, exec::default_jobs());
    std::fprintf(f, "  \"cells\": [\n");

    bool first_cell = true;
    for (const std::size_t clusters : kClusters) {
      for (const double latency : kLatencies) {
        CellRun reference;
        for (const int jobs : kJobs) {
          const CellRun run = run_cell(base, clusters, latency, jobs);
          if (jobs == 1) {
            reference = run;
          } else if (run.checksum != reference.checksum) {
            std::fclose(f);
            throw std::runtime_error(
                "determinism violation: PDES trace with jobs=" +
                std::to_string(jobs) + " diverged from the sequential "
                "reference at clusters=" + std::to_string(clusters) +
                " latency=" + std::to_string(latency));
          }
          const double speedup =
              jobs == 1 ? 1.0 : reference.elapsed / run.elapsed;
          std::printf(
              "  clusters=%zu latency=%5.1fs jobs=%d : %7.2f s  "
              "(speedup %.2fx, %llu windows, %llu duplicate starts)\n",
              clusters, latency, jobs, run.elapsed, speedup,
              static_cast<unsigned long long>(run.windows),
              static_cast<unsigned long long>(run.duplicate_starts));
          std::fprintf(f, "%s    {\n", first_cell ? "" : ",\n");
          first_cell = false;
          std::fprintf(f,
                       "      \"clusters\": %zu,\n"
                       "      \"latency_s\": %.3f,\n"
                       "      \"jobs\": %d,\n"
                       "      \"jobs_generated\": %llu,\n"
                       "      \"elapsed_seconds\": %.4f,\n"
                       "      \"windows\": %llu,\n"
                       "      \"duplicate_starts\": %llu,\n"
                       "      \"trace_checksum\": \"%016llx\",\n",
                       clusters, latency, jobs,
                       static_cast<unsigned long long>(run.messages),
                       run.elapsed,
                       static_cast<unsigned long long>(run.windows),
                       static_cast<unsigned long long>(run.duplicate_starts),
                       static_cast<unsigned long long>(run.checksum));
          if (jobs == 1) {
            std::fprintf(f, "      \"speedup_vs_one_worker\": 1.0\n");
          } else {
            // Indent shim: the shared helper writes at top-level indent.
            std::fprintf(f, "    ");
            bench::write_json_speedup_field(f, "speedup_vs_one_worker",
                                            reference.elapsed / run.elapsed);
            std::fprintf(f, "      \"matches_sequential_trace\": true\n");
          }
          std::fprintf(f, "    }");
        }
      }
    }
    std::fprintf(f, "\n  ],\n  \"deterministic_across_workers\": true\n}\n");
    std::fclose(f);
    std::printf("\nperf record written to %s\n", out_path.c_str());
  });
}

// Sweep-engine benchmark and perf record.
//
// Runs one multi-point relative sweep (the shape of every figure/table
// harness: K redundancy schemes x reps replications, each replication a
// scheme-vs-NONE experiment pair) three times:
//
//   1. serial, trace cache disabled  — the pre-sweep-engine baseline:
//      every experiment regenerates its Lublin streams from scratch;
//   2. serial, trace cache enabled   — isolates the memoization win;
//   3. parallel (--jobs), cache on   — adds the flat work-unit pool.
//
// All three must produce bit-identical metrics (enforced), so the record
// measures pure execution-strategy wins. Each must also execute exactly
// one simulation per distinct effective run and replication — the NONE
// baseline plus each distinct RedundancyScheme::effective() of the five
// schemes, 6 x reps at the default N = 10 — out of the 10 x reps its
// points request (enforced: the smoke test fails if the sweep stops
// sharing runs or shares too many). Results land in BENCH_sweep.json
// with the execution environment, so numbers from a 1-core container and
// a 16-core workstation are distinguishable: on a single hardware thread
// only the cache win shows up; the parallel win needs real cores.
//
//   ./micro_sweep [--reps=4] [--hours=1] [--jobs=N]
//                 [--out=BENCH_sweep.json] plus common flags.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using namespace rrsim;
using Clock = std::chrono::steady_clock;

const std::vector<const char*> kSchemes{"R2", "R3", "R4", "HALF", "ALL"};

struct SweepRun {
  double elapsed = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  core::SweepRunStats simulations;
  std::vector<core::RelativeMetrics> results;
};

// Distinct runs per replication the sweep must execute: the NONE
// baseline plus every distinct effective scheme (a degree-1 scheme is the
// baseline itself).
std::uint64_t distinct_runs_per_rep(std::size_t n_clusters) {
  std::vector<core::RedundancyScheme> runs{core::RedundancyScheme::none()};
  for (const char* name : kSchemes) {
    const core::RedundancyScheme e =
        core::RedundancyScheme::parse(name).effective(n_clusters);
    if (std::find(runs.begin(), runs.end(), e) == runs.end()) {
      runs.push_back(e);
    }
  }
  return runs.size();
}

SweepRun run_sweep(const core::ExperimentConfig& base, int reps, int jobs,
                   bool cache_on) {
  workload::TraceCache& cache = workload::TraceCache::global();
  cache.set_enabled(cache_on);
  cache.clear();  // every mode starts cold: no cross-mode carry-over

  SweepRun run;
  run.results.resize(kSchemes.size());
  const auto start = Clock::now();
  core::CampaignSweep sweep(reps, jobs);
  for (std::size_t i = 0; i < kSchemes.size(); ++i) {
    core::ExperimentConfig c = base;
    c.scheme = core::RedundancyScheme::parse(kSchemes[i]);
    sweep.add_relative(c, [&run, i](const core::RelativeMetrics& m) {
      run.results[i] = m;
    });
  }
  sweep.run();
  run.elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  run.cache_hits = cache.hits();
  run.cache_misses = cache.misses();
  run.simulations = sweep.last_run_stats();
  return run;
}

void check_shared(const SweepRun& run, const core::ExperimentConfig& base,
                  int reps, const char* label) {
  const auto r = static_cast<std::uint64_t>(reps);
  const std::uint64_t requested = 2 * kSchemes.size() * r;
  const std::uint64_t executed = distinct_runs_per_rep(base.n_clusters) * r;
  if (run.simulations.requested != requested ||
      run.simulations.executed != executed) {
    throw std::runtime_error(
        std::string("sharing violation: ") + label + " executed " +
        std::to_string(run.simulations.executed) + " of " +
        std::to_string(run.simulations.requested) +
        " simulations, expected " + std::to_string(executed) + " of " +
        std::to_string(requested));
  }
}

void check_identical(const SweepRun& a, const SweepRun& b,
                     const char* label) {
  for (std::size_t i = 0; i < kSchemes.size(); ++i) {
    if (a.results[i].rel_avg_stretch != b.results[i].rel_avg_stretch ||
        a.results[i].rel_cv_stretch != b.results[i].rel_cv_stretch ||
        a.results[i].win_rate != b.results[i].win_rate) {
      throw std::runtime_error(std::string("determinism violation: ") +
                               label + " diverged at point " + kSchemes[i]);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const int reps = bench::repetitions(cli, 4);
    const int jobs = exec::default_jobs();
    const std::string out_path = cli.get_string("out", "BENCH_sweep.json");

    core::ExperimentConfig base = core::figure_config();
    base.submit_horizon = 1.0 * 3600.0;
    base = core::apply_common_flags(base, cli);
    cli.reject_unread();

    std::printf("=== micro_sweep - sweep engine throughput ===\n");
    std::printf(
        "one %zu-point x %d-rep relative sweep (each rep is a scheme +\n"
        "NONE experiment pair) under three execution strategies; all three\n"
        "must agree bit-exactly\n\n",
        kSchemes.size(), reps);

    const SweepRun baseline = run_sweep(base, reps, 1, false);
    std::printf("  serial, cache off : %8.2f s  (%" PRIu64
                " stream generations)\n",
                baseline.elapsed, baseline.cache_misses);
    const SweepRun cached = run_sweep(base, reps, 1, true);
    std::printf("  serial, cache on  : %8.2f s  (%" PRIu64 " hits / %" PRIu64
                " misses)\n",
                cached.elapsed, cached.cache_hits, cached.cache_misses);
    const SweepRun parallel = run_sweep(base, reps, jobs, true);
    std::printf("  --jobs %-2d, cache on: %7.2f s  (%" PRIu64 " hits / %" PRIu64
                " misses)\n",
                jobs, parallel.elapsed, parallel.cache_hits,
                parallel.cache_misses);

    check_identical(baseline, cached, "cache on vs off");
    check_identical(baseline, parallel, "--jobs 1 vs --jobs N");
    check_shared(baseline, base, reps, "serial, cache off");
    check_shared(cached, base, reps, "serial, cache on");
    check_shared(parallel, base, reps, "--jobs N");
    std::printf("simulations: %" PRIu64 " executed of %" PRIu64
                " requested per sweep\n",
                cached.simulations.executed, cached.simulations.requested);

    const double cache_speedup = baseline.elapsed / cached.elapsed;
    const double parallel_speedup = cached.elapsed / parallel.elapsed;
    const double total_speedup = baseline.elapsed / parallel.elapsed;
    const double hit_rate =
        cached.cache_hits + cached.cache_misses > 0
            ? static_cast<double>(cached.cache_hits) /
                  static_cast<double>(cached.cache_hits +
                                      cached.cache_misses)
            : 0.0;
    std::printf(
        "\nspeedup vs serial-uncached: cache alone %.2fx, + %d workers "
        "%.2fx total\ncache hit rate %.0f%% (results bit-identical across "
        "all modes)\n",
        cache_speedup, jobs, total_speedup, hit_rate * 100.0);

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("cannot write " + out_path);
    }
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"micro_sweep\",\n");
    bench::write_json_env_fields(f, jobs);
    std::fprintf(f,
                 "  \"sweep_points\": %zu,\n"
                 "  \"reps_per_point\": %d,\n"
                 "  \"simulations_requested\": %" PRIu64 ",\n"
                 "  \"simulations_executed\": %" PRIu64 ",\n"
                 "  \"serial_nocache_seconds\": %.4f,\n"
                 "  \"serial_cached_seconds\": %.4f,\n"
                 "  \"parallel_seconds\": %.4f,\n"
                 "  \"cache_hits\": %" PRIu64 ",\n"
                 "  \"cache_misses\": %" PRIu64 ",\n"
                 "  \"cache_hit_rate\": %.4f,\n"
                 "  \"cache_speedup\": %.4f,\n",
                 kSchemes.size(), reps, cached.simulations.requested,
                 cached.simulations.executed, baseline.elapsed, cached.elapsed,
                 parallel.elapsed, cached.cache_hits, cached.cache_misses,
                 hit_rate, cache_speedup);
    bench::write_json_speedup_field(f, "parallel_speedup", parallel_speedup);
    std::fprintf(f,
                 "  \"total_speedup_vs_serial\": %.4f,\n"
                 "  \"deterministic_across_modes\": true\n"
                 "}\n",
                 total_speedup);
    std::fclose(f);
    std::printf("\nperf record written to %s\n", out_path.c_str());
  });
}

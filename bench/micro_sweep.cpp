// Sweep-engine benchmark and perf record.
//
// Runs one multi-point relative sweep (the shape of every figure/table
// harness: K redundancy schemes x reps replications, each replication a
// scheme-vs-NONE experiment pair) twice: serially, then on --jobs
// workers (the flat work-unit pool).
//
// Both modes are timed by bench::time_repeatable and clear the trace
// cache at the start of each run, so every timed run stays cache-cold by
// design and the cache serves only what one sweep shares with itself.
// Both must produce bit-identical metrics (enforced), so the record
// measures the pool's win alone. Each must also execute exactly
// one simulation per distinct effective run and replication — the NONE
// baseline plus each distinct RedundancyScheme::effective() of the five
// schemes, 6 x reps at the default N = 10 — out of the 10 x reps its
// points request (enforced: the smoke test fails if the sweep stops
// sharing runs or shares too many). Results land in BENCH_sweep.json
// with the execution environment, so numbers from a 1-core container and
// a 16-core workstation are distinguishable: the parallel win needs real
// cores.
//
//   ./micro_sweep [--reps=4] [--hours=1] [--jobs=N]
//                 [--out=BENCH_sweep.json] plus common flags.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

namespace {

using namespace rrsim;

const std::vector<const char*> kSchemes{"R2", "R3", "R4", "HALF", "ALL"};

/// What one sweep produced: its points' metrics, and how many simulations
/// served how many requests. Compared across runs and modes.
struct SweepOutcome {
  std::vector<double> metrics;  // per point: avg, cv, win rate
  std::uint64_t requested = 0;
  std::uint64_t executed = 0;
  bool operator==(const SweepOutcome&) const = default;
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

/// One sweep from a cleared trace cache.
SweepOutcome run_sweep(const core::ExperimentConfig& base, int reps,
                       int jobs) {
  // Every run starts cold: no carry-over between runs.
  workload::TraceCache::global().clear();

  std::vector<core::RelativeMetrics> results(kSchemes.size());
  core::CampaignSweep sweep(reps, jobs);
  for (std::size_t i = 0; i < kSchemes.size(); ++i) {
    core::ExperimentConfig c = base;
    c.scheme = core::RedundancyScheme::parse(kSchemes[i]);
    sweep.add_relative(c, [&results, i](const core::RelativeMetrics& m) {
      results[i] = m;
    });
  }
  sweep.run();
  SweepOutcome out;
  for (const core::RelativeMetrics& m : results) {
    out.metrics.insert(out.metrics.end(),
                       {m.rel_avg_stretch, m.rel_cv_stretch, m.win_rate});
  }
  out.requested = sweep.last_run_stats().requested;
  out.executed = sweep.last_run_stats().executed;
  return out;
}

void check_shared(const SweepOutcome& run, const core::ExperimentConfig& base,
                  int reps, const char* label) {
  const auto r = static_cast<std::uint64_t>(reps);
  const std::uint64_t requested = 2 * kSchemes.size() * r;
  const std::uint64_t executed = distinct_runs_per_rep(base.n_clusters) * r;
  if (run.requested != requested || run.executed != executed) {
    throw std::runtime_error(
        std::string("sharing violation: ") + label + " executed " +
        std::to_string(run.executed) + " of " +
        std::to_string(run.requested) + " simulations, expected " +
        std::to_string(executed) + " of " + std::to_string(requested));
  }
}

/// Times one mode; every run must produce the same outcome.
std::pair<bench::Timing, SweepOutcome> time_mode(
    const char* label, const core::ExperimentConfig& base, int reps,
    int jobs) {
  auto timed = bench::time_repeatable(
      label, [&] { return run_sweep(base, reps, jobs); });
  check_shared(timed.second, base, reps, label);
  return timed;
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
        "NONE experiment pair), serial and parallel; both must agree\n"
        "bit-exactly\n\n",
        kSchemes.size(), reps);

    const auto [serial, baseline] = time_mode("serial", base, reps, 1);
    // The cache holds the last serial run's counters.
    const workload::TraceCache& cache = workload::TraceCache::global();
    const std::uint64_t hits = cache.hits();
    const std::uint64_t misses = cache.misses();
    std::printf("  serial    : %8.4f s  [%.4f, %.4f]  (%" PRIu64
                " hits / %" PRIu64 " misses)\n",
                serial.median, serial.min, serial.max, hits, misses);
    const auto [parallel, parallel_outcome] =
        time_mode("--jobs N", base, reps, jobs);
    std::printf("  --jobs %-2d : %8.4f s  [%.4f, %.4f]\n", jobs,
                parallel.median, parallel.min, parallel.max);
    if (!(parallel_outcome == baseline)) {
      throw std::runtime_error(
          "determinism violation: --jobs 1 vs --jobs N diverged");
    }
    std::printf("simulations: %" PRIu64 " executed of %" PRIu64
                " requested per sweep\n",
                baseline.executed, baseline.requested);
    const double hit_rate =
        hits + misses > 0 ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0;
    std::printf(
        "\nspeedup of %d workers over serial: %.2fx\ncache hit rate %.0f%% "
        "(results bit-identical across modes)\n",
        jobs, serial.median / parallel.median, hit_rate * 100.0);

    bench::JsonWriter w = bench::begin_record("micro_sweep", jobs);
    w.field("sweep_points", kSchemes.size()).field("reps_per_point", reps);
    w.field("simulations_requested", baseline.requested);
    w.field("simulations_executed", baseline.executed);
    w.field("serial_cached_seconds", serial);
    w.field("parallel_seconds", parallel);
    w.field("cache_hits", hits).field("cache_misses", misses);
    w.field("cache_hit_rate", hit_rate);
    w.parallel_speedup("parallel_speedup", serial, parallel);
    w.field("deterministic_across_modes", true).end_object();
    bench::finish_record(w, out_path);
  });
}

// Campaign throughput benchmark and perf record.
//
// Times a relative campaign (scheme vs NONE pairs over --reps
// repetitions) at --jobs 1 and at --jobs N, which bounds every
// figure/table harness in bench/, and records the parallel speedup as a
// ratio of medians with the ratio of the extremes beside it. Both sides
// are timed by bench::time_repeatable, so neither divides by a cold run,
// and every run on either side must give the same relative stretch. The
// kernel's own throughput is micro_kernel's record.
//
//   ./micro_campaign [--reps=16] [--jobs=N] [--out=BENCH_campaign.json]
//                    plus common flags.

#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench_common.h"

namespace {

using namespace rrsim;

core::ExperimentConfig campaign_config(const util::Cli& cli) {
  core::ExperimentConfig c =
      core::apply_common_flags(core::figure_config_quick(), cli);
  if (!cli.has("clusters")) c.n_clusters = 4;
  if (!cli.has("hours")) c.submit_horizon = 0.5 * 3600.0;
  if (c.scheme.is_none()) c.scheme = core::RedundancyScheme::half();
  return c;
}

/// The campaign's outcome, compared bit for bit across runs and worker
/// counts.
struct Outcome {
  double rel_avg_stretch = 0.0;
  double rel_cv_stretch = 0.0;
  double win_rate = 0.0;
  bool operator==(const Outcome&) const = default;
};

}  // namespace

int main(int argc, char** argv) {
  return rrsim::bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const int reps = rrsim::bench::repetitions(cli, 16);
    const int jobs = exec::default_jobs();
    const std::string out_path =
        cli.get_string("out", "BENCH_campaign.json");
    const core::ExperimentConfig config = campaign_config(cli);
    cli.reject_unread();
    rrsim::bench::banner(
        "micro_campaign - campaign throughput",
        "wall-clock of a paired relative campaign at --jobs 1 vs --jobs N;\n"
        "the median of " + std::to_string(bench::kTimedRuns) +
            " timed runs after a warm-up, [min, max] beside it",
        reps);
    std::printf("campaign: %zu clusters, scheme %s, %d reps\n",
                config.n_clusters, config.scheme.name().c_str(), reps);

    const auto campaign = [&](int workers) {
      return bench::time_repeatable(
          "campaign at --jobs " + std::to_string(workers), [&] {
            const core::RelativeMetrics m =
                core::run_relative_campaign(config, reps, workers);
            return Outcome{m.rel_avg_stretch, m.rel_cv_stretch, m.win_rate};
          });
    };
    const auto [serial, serial_outcome] = campaign(1);
    std::printf("  --jobs 1  : %8.4f s  [%.4f, %.4f]  (rel stretch %.3f)\n",
                serial.median, serial.min, serial.max,
                serial_outcome.rel_avg_stretch);
    const auto [parallel, parallel_outcome] = campaign(jobs);
    std::printf("  --jobs %-2d : %8.4f s  [%.4f, %.4f]  (rel stretch %.3f)  "
                "speedup %.2fx\n",
                jobs, parallel.median, parallel.min, parallel.max,
                parallel_outcome.rel_avg_stretch,
                serial.median / parallel.median);
    if (!(serial_outcome == parallel_outcome)) {
      throw std::runtime_error(
          "determinism violation: --jobs 1 and --jobs N disagree");
    }

    bench::JsonWriter w = bench::begin_record("micro_campaign", jobs);
    w.field("reps", reps).field("clusters", config.n_clusters);
    w.field("scheme", config.scheme.name());
    w.field("rel_avg_stretch", serial_outcome.rel_avg_stretch, 6);
    w.field("seconds_jobs1", serial);
    w.field("jobs", jobs).field("seconds_jobsN", parallel);
    w.parallel_speedup("speedup", serial, parallel);
    w.field("deterministic_across_jobs", true).end_object();
    bench::finish_record(w, out_path);
  });
}

// Tie-break schedule-exploration benchmark and sensitivity record.
//
// Runs the DPOR-lite explorer (tools/check) over two configurations and
// records throughput plus the sensitivity verdicts in BENCH_check.json:
//
//   1. ties_swf — a synthetic SWF replay with three same-timestamp jobs
//      per arrival slot on every cluster: maximally tie-heavy, so the
//      explorer's replay loop and pruning machinery dominate the wall
//      clock. The FCFS baseline is genuinely tie-sensitive here (queue
//      position among tied arrivals decides who waits; see DESIGN.md
//      §10), so the expected verdict is TIE-SENSITIVE — the bench records
//      how fast the explorer proves it, not a pass/fail.
//   2. lublin_r4 — the paper's quick figure regime (Lublin arrivals,
//      EASY) with fixed-degree-4 redundancy: continuous submit times, so
//      tie cohorts are rare and the census run dominates. This is the
//      shape CI's `check` job gates on.
//
// Schedules/sec counts full experiment replays (census + explored
// schedules + witness replays) per second of exploration wall time (the
// median of bench::time_repeatable, so the explorer must reach the same
// verdict and counts on every run); the pruning ratio is the fraction of
// candidate schedules DPOR proved equivalent without replaying.
//
//   ./micro_check [--cohorts=120] [--ties=3] [--k=3] [--samples=2]
//                 [--max-groups=24] [--hours=1] [--out=BENCH_check.json]

#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "bench_common.h"
#include "explore.h"
#include "rrsim/core/paper.h"
#include "ties_trace.h"

namespace {

using namespace rrsim;

/// The explorer's verdict and counts: the same on every run.
struct Verdict {
  std::uint64_t groups_total = 0;
  std::uint64_t groups_explored = 0;
  std::uint64_t schedules_explored = 0;
  std::uint64_t schedules_pruned = 0;
  std::uint64_t witness_replays = 0;
  std::uint64_t divergence_count = 0;
  std::uint64_t replay_mismatches = 0;
  double max_drift = 0.0;
  bool identical = true;
  bool oracles_armed = false;
  bool operator==(const Verdict&) const = default;

  std::uint64_t replays() const {
    return 1 + schedules_explored + witness_replays;  // +census
  }
  double pruning_ratio() const {
    const double candidates =
        static_cast<double>(schedules_explored + schedules_pruned);
    return candidates > 0.0
               ? static_cast<double>(schedules_pruned) / candidates
               : 0.0;
  }
};

struct ScenarioResult {
  bench::Timing t;
  Verdict v;
  double replays_per_sec() const {
    return static_cast<double>(v.replays()) / t.median;
  }
};

ScenarioResult run_scenario(const char* name,
                            const core::ExperimentConfig& config,
                            const check::ExploreOptions& opts) {
  const auto [t, v] = bench::time_repeatable(name, [&] {
    check::ExperimentProbe probe(config);
    const check::ExploreReport r = check::explore(probe, opts);
    return Verdict{r.groups_total,      r.groups_explored,
                   r.schedules_explored, r.schedules_pruned,
                   r.witness_replays,   r.divergence_count,
                   r.replay_mismatches, r.max_drift,
                   r.identical,         r.oracles_armed};
  });
  const ScenarioResult r{t, v};
  std::printf("  %-10s %7.4f s  [%.4f, %.4f]  %5llu cohorts (%llu "
              "explored)  %6llu replayed  %6llu pruned (%.0f%%)  %8.1f "
              "replays/s  %s\n",
              name, t.median, t.min, t.max,
              static_cast<unsigned long long>(v.groups_total),
              static_cast<unsigned long long>(v.groups_explored),
              static_cast<unsigned long long>(v.schedules_explored),
              static_cast<unsigned long long>(v.schedules_pruned),
              100.0 * v.pruning_ratio(), r.replays_per_sec(),
              v.identical ? "IDENTICAL" : "TIE-SENSITIVE");
  return r;
}

void write_scenario(bench::JsonWriter& w, const char* name,
                    const ScenarioResult& r) {
  const Verdict& v = r.v;
  w.key(name).begin_object();
  w.field("seconds", r.t);
  w.field("groups_total", v.groups_total);
  w.field("groups_explored", v.groups_explored);
  w.field("schedules_explored", v.schedules_explored);
  w.field("schedules_pruned", v.schedules_pruned);
  w.field("pruning_ratio", v.pruning_ratio());
  w.field("witness_replays", v.witness_replays);
  w.field("replays_per_sec", r.replays_per_sec(), 2);
  w.field("divergence_count", v.divergence_count);
  w.field("max_drift", v.max_drift, 6);
  w.field("replay_mismatches", v.replay_mismatches);
  w.field("verdict", v.identical ? "identical" : "tie-sensitive");
  w.field("oracles_armed", v.oracles_armed).end_object();
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    const int cohorts =
        static_cast<int>(cli.get_int_in("cohorts", 120, 1, kIntMax));
    const int ties = static_cast<int>(cli.get_int_in("ties", 3, 2, kIntMax));
    const auto k =
        static_cast<std::size_t>(cli.get_int_in("k", 3, 0, kIntMax));
    const auto samples =
        static_cast<std::size_t>(cli.get_int_in("samples", 2, 0, kIntMax));
    const auto max_groups = static_cast<std::size_t>(
        cli.get_int_in("max-groups", 24, 0, kIntMax));
    const double hours = cli.get_double("hours", 1.0);
    const std::string out_path = cli.get_string("out", "BENCH_check.json");
    cli.reject_unread();
    if (hours <= 0.0) {
      throw std::invalid_argument("--hours > 0 required");
    }

    std::printf("=== micro_check - tie-break schedule exploration ===\n");
    std::printf(
        "DPOR-lite explorer over a tie-heavy SWF replay (%d cohorts x %d\n"
        "tied jobs) and the quick Lublin figure regime with fixed-4\n"
        "redundancy; exhaustive k<=%zu, %zu samples above, first %zu "
        "cohorts.\n\n",
        cohorts, ties, k, samples, max_groups);

    check::ExploreOptions opts;
    opts.exhaustive_k = k;
    opts.samples_above_k = samples;
    opts.seed = 1;
    opts.max_groups = max_groups;

    core::ExperimentConfig ties_config;
    ties_config.n_clusters = 2;
    ties_config.nodes_per_cluster = 16;
    ties_config.submit_horizon = 60.0 * cohorts + 300.0;
    ties_config.trace_files = {check::write_ties_trace(
        cohorts, ties, "rrsim_micro_check_ties.swf")};
    ties_config.seed = 5;
    ties_config.retain_records = true;
    const ScenarioResult ties_result =
        run_scenario("ties_swf", ties_config, opts);

    core::ExperimentConfig lublin = core::figure_config_quick();
    lublin.n_clusters = 2;
    lublin.submit_horizon = hours * 3600.0;
    lublin.scheme = core::RedundancyScheme::fixed(4);
    lublin.retain_records = true;
    const ScenarioResult lublin_result =
        run_scenario("lublin_r4", lublin, opts);

    bench::JsonWriter w = bench::begin_record("micro_check", 1);
    w.field("cohorts", cohorts).field("ties_per_cohort", ties);
    w.field("exhaustive_k", k).field("samples_above_k", samples);
    w.field("max_groups", max_groups).field("lublin_hours", hours, 2);
    write_scenario(w, "ties_swf", ties_result);
    write_scenario(w, "lublin_r4", lublin_result);
    w.end_object();
    bench::finish_record(w, out_path);
  });
}

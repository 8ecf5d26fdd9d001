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
// schedules + witness replays) per second of exploration wall time; the
// pruning ratio is the fraction of candidate schedules DPOR proved
// equivalent without replaying.
//
//   ./micro_check [--cohorts=120] [--ties=3] [--k=3] [--samples=2]
//                 [--max-groups=24] [--hours=1] [--out=BENCH_check.json]

#include <chrono>
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
using Clock = std::chrono::steady_clock;

struct ScenarioResult {
  check::ExploreReport report;
  double elapsed = 0.0;

  std::uint64_t replays() const {
    return 1 + report.schedules_explored + report.witness_replays;  // +census
  }
  double replays_per_sec() const {
    return elapsed > 0.0 ? static_cast<double>(replays()) / elapsed : 0.0;
  }
  double pruning_ratio() const {
    const double candidates = static_cast<double>(report.schedules_explored +
                                                  report.schedules_pruned);
    return candidates > 0.0
               ? static_cast<double>(report.schedules_pruned) / candidates
               : 0.0;
  }
};

ScenarioResult run_scenario(const char* name, core::ExperimentConfig config,
                            const check::ExploreOptions& opts) {
  check::ExperimentProbe probe(std::move(config));
  const auto start = Clock::now();
  ScenarioResult r;
  r.report = check::explore(probe, opts);
  r.elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  std::printf("  %-10s %7.3f s  %5llu cohorts (%llu explored)  %6llu "
              "replayed  %6llu pruned (%.0f%%)  %8.1f replays/s  %s\n",
              name, r.elapsed,
              static_cast<unsigned long long>(r.report.groups_total),
              static_cast<unsigned long long>(r.report.groups_explored),
              static_cast<unsigned long long>(r.report.schedules_explored),
              static_cast<unsigned long long>(r.report.schedules_pruned),
              100.0 * r.pruning_ratio(), r.replays_per_sec(),
              r.report.identical ? "IDENTICAL" : "TIE-SENSITIVE");
  return r;
}

void write_scenario_json(std::FILE* f, const char* name,
                         const ScenarioResult& r, bool trailing_comma) {
  std::fprintf(
      f,
      "  \"%s\": {\n"
      "    \"seconds\": %.4f,\n"
      "    \"groups_total\": %llu,\n"
      "    \"groups_explored\": %llu,\n"
      "    \"schedules_explored\": %llu,\n"
      "    \"schedules_pruned\": %llu,\n"
      "    \"pruning_ratio\": %.4f,\n"
      "    \"witness_replays\": %llu,\n"
      "    \"replays_per_sec\": %.2f,\n"
      "    \"divergence_count\": %llu,\n"
      "    \"max_drift\": %.6g,\n"
      "    \"replay_mismatches\": %llu,\n"
      "    \"verdict\": \"%s\",\n"
      "    \"oracles_armed\": %s\n"
      "  }%s\n",
      name, r.elapsed,
      static_cast<unsigned long long>(r.report.groups_total),
      static_cast<unsigned long long>(r.report.groups_explored),
      static_cast<unsigned long long>(r.report.schedules_explored),
      static_cast<unsigned long long>(r.report.schedules_pruned),
      r.pruning_ratio(),
      static_cast<unsigned long long>(r.report.witness_replays),
      r.replays_per_sec(),
      static_cast<unsigned long long>(r.report.divergence_count),
      r.report.max_drift,
      static_cast<unsigned long long>(r.report.replay_mismatches),
      r.report.identical ? "identical" : "tie-sensitive",
      r.report.oracles_armed ? "true" : "false", trailing_comma ? "," : "");
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

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("cannot write " + out_path);
    }
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"micro_check\",\n");
    bench::write_json_env_fields(f, 1);
    std::fprintf(f,
                 "  \"cohorts\": %d,\n"
                 "  \"ties_per_cohort\": %d,\n"
                 "  \"exhaustive_k\": %zu,\n"
                 "  \"samples_above_k\": %zu,\n"
                 "  \"max_groups\": %zu,\n"
                 "  \"lublin_hours\": %.2f,\n",
                 cohorts, ties, k, samples, max_groups, hours);
    write_scenario_json(f, "ties_swf", ties_result, /*trailing_comma=*/true);
    write_scenario_json(f, "lublin_r4", lublin_result,
                        /*trailing_comma=*/false);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nperf record written to %s\n", out_path.c_str());
  });
}

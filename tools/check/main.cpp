// rrsim_check — tie-break schedule explorer CLI.
//
// Replays one experiment configuration under permuted same-timestamp
// dispatch orders (tools/check/explore.h) and reports whether the model's
// outputs depend on the kernel's arbitrary seq-order tie-break.
//
// Usage:
//   rrsim_check [--preset=fig1-quick|fig1|base] [common experiment flags]
//               [--trace=swf_path] [--gen-ties=slots] [--check-k=4]
//               [--check-samples=4] [--check-seed=1]
//               [--check-max-groups=0] [--check-max-schedules=0]
//               [--check-drift-tol=0] [--check-no-minimize]
//               [--report=path.json] [--quiet]
//
// --gen-ties=N writes a synthetic tie-heavy SWF (N 60-second arrival
// slots, three identical-timestamp jobs each) to the temp directory and
// replays it — the self-contained worst case for tie cohorts, used by
// CI's `check` job so no trace fixture needs to live in the repo.
//
// Common experiment flags are the shared bench set (core/options.h):
// --clusters, --algo, --scheme, --pdes, --latency, --seed, ...
//
// Exit codes: 0 = outcomes bit-identical under every explored schedule
// (required at --check-drift-tol=0) or drift within the tolerance;
// 1 = tie-sensitive beyond tolerance (or a replay mismatch); 2 = usage or
// I/O error. In an RRSIM_VALIDATE build every replay also runs under the
// kernel and scheduler oracles, making this an incremental-fast-path
// fuzzer over permuted schedules (reported as "oracles_armed").
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <optional>
#include <string>

#include "explore.h"
#include "rrsim/core/options.h"
#include "rrsim/core/paper.h"
#include "rrsim/util/cli.h"
#include "ties_trace.h"

namespace {

int run(int argc, char** argv) {
  const rrsim::util::Cli cli(argc, argv);

  const std::string preset = cli.get_string("preset", "fig1-quick");
  rrsim::core::ExperimentConfig config;
  if (preset == "fig1") {
    config = rrsim::core::figure_config();
  } else if (preset == "fig1-quick") {
    config = rrsim::core::figure_config_quick();
  } else if (preset == "base") {
    config = rrsim::core::ExperimentConfig{};
  } else {
    std::fprintf(stderr, "rrsim_check: unknown --preset=%s\n",
                 preset.c_str());
    return 2;
  }
  config = rrsim::core::apply_common_flags(config, cli);
  if (cli.has("trace")) {
    config.trace_files.push_back(cli.get_string("trace", ""));
  }
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  const int tie_slots =
      cli.has("gen-ties")
          ? static_cast<int>(cli.get_int_in("gen-ties", 120, 1, kIntMax))
          : 0;

  rrsim::check::ExploreOptions opts;
  opts.exhaustive_k =
      static_cast<std::size_t>(cli.get_int_in("check-k", 4, 0, kIntMax));
  opts.samples_above_k = static_cast<std::size_t>(
      cli.get_int_in("check-samples", 4, 0, kIntMax));
  opts.seed = static_cast<std::uint64_t>(
      cli.get_int("check-seed", static_cast<std::int64_t>(config.seed)));
  opts.max_groups = static_cast<std::size_t>(
      cli.get_int_in("check-max-groups", 0, 0, kIntMax));
  opts.max_schedules = static_cast<std::size_t>(
      cli.get_int_in("check-max-schedules", 0, 0, kIntMax));
  opts.drift_tolerance = cli.get_double("check-drift-tol", 0.0);
  opts.minimize_witnesses = !cli.get_bool("check-no-minimize", false);
  std::optional<std::string> report_path;
  if (cli.has("report")) report_path = cli.get_string("report", "");
  const bool quiet = cli.get_bool("quiet", false);
  cli.reject_unread();

  if (tie_slots > 0) {
    config.trace_files.push_back(rrsim::check::write_ties_trace(
        tie_slots, /*ties_per_slot=*/3, "rrsim_check_ties.swf"));
  }
  rrsim::check::ExperimentProbe probe(config);
  const rrsim::check::ExploreReport report =
      rrsim::check::explore(probe, opts);

  if (report_path) {
    std::FILE* f = std::fopen(report_path->c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "rrsim_check: cannot write %s\n",
                   report_path->c_str());
      return 2;
    }
    rrsim::check::write_report_json(report, f);
    std::fclose(f);
  }

  if (!quiet) {
    std::printf("rrsim_check: %llu tie groups (%llu explored, %llu "
                "skipped), %llu schedules replayed, %llu pruned "
                "(DPOR), %llu witness replays%s\n",
                static_cast<unsigned long long>(report.groups_total),
                static_cast<unsigned long long>(report.groups_explored),
                static_cast<unsigned long long>(report.groups_skipped),
                static_cast<unsigned long long>(report.schedules_explored),
                static_cast<unsigned long long>(report.schedules_pruned),
                static_cast<unsigned long long>(report.witness_replays),
                report.oracles_armed ? " [oracles armed]" : "");
    if (report.identical) {
      std::printf("rrsim_check: verdict IDENTICAL — every explored "
                  "schedule reproduced outcome hash %016llx\n",
                  static_cast<unsigned long long>(
                      report.baseline.outcome_hash));
    } else {
      std::printf("rrsim_check: verdict TIE-SENSITIVE — %llu diverging "
                  "schedules, max headline drift %.6g (tolerance %.6g)\n",
                  static_cast<unsigned long long>(report.divergence_count),
                  report.max_drift, opts.drift_tolerance);
      for (const rrsim::check::Divergence& d : report.divergences) {
        std::printf("  group %llu (partition %u, t=%.6g, prio %d, size "
                    "%zu): drift mean=%.3g p99=%.3g dup=%g%s\n",
                    static_cast<unsigned long long>(d.group_id),
                    d.partition, d.time, d.priority, d.group_size,
                    d.drift_mean_stretch, d.drift_p99_stretch,
                    d.drift_duplicate_starts,
                    d.witness_is_transposition
                        ? " [witness: adjacent transposition]"
                        : "");
      }
    }
    if (report.replay_mismatches != 0) {
      std::printf("rrsim_check: WARNING — %llu replays failed to "
                  "reproduce the census prefix\n",
                  static_cast<unsigned long long>(report.replay_mismatches));
    }
  }
  return report.within_tolerance ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rrsim_check: %s\n", e.what());
    return 2;
  }
}

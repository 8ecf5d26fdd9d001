// Shared plumbing for the experiment harnesses in bench/: every binary
// regenerates one table or figure of the paper, prints the paper's rows
// as aligned text plus a CSV block, and accepts the common flags from
// rrsim/core/options.h plus --reps and --full (paper-scale repetitions).
#pragma once

#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "rrsim/core/campaign.h"
#include "rrsim/core/options.h"
#include "rrsim/core/paper.h"
#include "rrsim/core/sweep.h"
#include "rrsim/exec/jobs.h"
#include "rrsim/util/cli.h"
#include "rrsim/util/table.h"
#include "rrsim/workload/trace_cache.h"

namespace rrsim::bench {

/// Repetition count: --reps wins; --full selects the paper's 50; otherwise
/// `quick_default`. Rejects --reps < 1 at the flag layer so the mistake is
/// reported as a usage error, not from deep inside a campaign. Also
/// consumes --jobs here (core::apply_jobs_flag: harnesses parse --reps
/// before printing the banner, so the banner reports the configured
/// worker count even when apply_common_flags runs later).
inline int repetitions(const util::Cli& cli, int quick_default) {
  // Trace-cache byte budget from the environment, so CI can cap bench
  // memory without editing every invocation. Applied before the flags, so
  // an explicit --trace-cache-budget (apply_common_flags, which harnesses
  // call later) wins over the env var.
  if (const char* env = std::getenv("RRSIM_TRACE_CACHE_BUDGET")) {
    char* end = nullptr;
    const long long budget = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || budget < 0) {
      throw std::invalid_argument(
          "RRSIM_TRACE_CACHE_BUDGET must be a non-negative byte count (got "
          "\"" + std::string(env) + "\")");
    }
    workload::TraceCache::global().set_byte_budget(
        static_cast<std::size_t>(budget));
  }
  core::apply_jobs_flag(cli);
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  // --full is read even when --reps wins, so Cli::reject_unread() does
  // not report it.
  const bool full = cli.get_bool("full", false);
  if (cli.has("reps")) {
    return static_cast<int>(cli.get_int_in("reps", 0, 1, kIntMax));
  }
  return full ? 50 : quick_default;
}

/// Prints the harness banner: what is being reproduced and with which
/// protocol, so the output is interpretable on its own.
inline void banner(const std::string& experiment, const std::string& claim,
                   int reps) {
  std::printf("=== %s ===\n", experiment.c_str());
  std::printf("%s\n", claim.c_str());
  std::printf("repetitions per data point: %d (use --full for the paper's "
              "50); campaign workers: %d (--jobs / RRSIM_JOBS)\n\n",
              reps, exec::default_jobs());
}

/// Prints the summary line harnesses emit after their tables, describing
/// `sweep`'s last run(): its workers, the simulations it executed out of
/// those its points requested (relative points share their distinct
/// effective runs), and the trace-cache hits / misses of that run for
/// each entry kind. Points sharing a workload should miss once per
/// (seed, cluster) and hit otherwise; 0 hits on a multi-point sweep means
/// a cache key varies when it should not (or the points share nothing).
inline void sweep_summary(const core::CampaignSweep& sweep) {
  const core::SweepRunStats& runs = sweep.last_run_stats();
  const core::SweepCacheStats& c = sweep.last_cache_stats();
  std::printf("\n[sweep] jobs=%d hw=%u | simulations: %" PRIu64
              " run of %" PRIu64 " | trace cache hits/misses: streams %" PRIu64
              "/%" PRIu64 ", checkpoints %" PRIu64 "/%" PRIu64
              ", draws %" PRIu64 "/%" PRIu64 ", calibrations %" PRIu64
              "/%" PRIu64 ", spools %" PRIu64 "/%" PRIu64 "\n",
              sweep.jobs(), std::thread::hardware_concurrency(),
              runs.executed, runs.requested, c.stream_hits, c.stream_misses,
              c.checkpoint_hits, c.checkpoint_misses, c.draw_hits,
              c.draw_misses, c.calibration_hits, c.calibration_misses,
              c.spool_hits, c.spool_misses);
}

/// Peak resident set size of this process so far, in bytes (VmHWM from
/// /proc/self/status — the kernel's high-water mark, which survives
/// frees). 0 on platforms without procfs. This is the ground truth the
/// model-level live_state_bytes accounting is judged against.
inline std::size_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  std::size_t kib = 0;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib * 1024;
}

/// Writes the execution-environment fields every BENCH_*.json record
/// carries (trailing comma included): the machine's hardware concurrency,
/// the worker count actually used, the process's peak RSS at write time,
/// the trace-cache counters (how much stream/checkpoint/draw/calibration
/// recomputation the memoization absorbed, and what it holds resident),
/// and a UTC timestamp.
/// PR 1's record was taken on a 1-core box with no way to tell from the
/// JSON — these fields make perf records comparable across machines and
/// time.
///
/// Pass include_trace_cache = false when this process's global cache saw
/// no traffic (e.g. micro_scale, whose measured runs happen in child
/// processes with their own caches): the block is then replaced by a note
/// pointing at the per-point stats, instead of an all-zero block that
/// reads as "the cache never hit".
inline void write_json_env_fields(std::FILE* f, int jobs_used,
                                  bool include_trace_cache = true) {
  char stamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &utc);
  }
  std::fprintf(f,
               "  \"hardware_concurrency\": %u,\n"
               "  \"jobs_used\": %d,\n"
               "  \"peak_rss_bytes\": %zu,\n",
               std::thread::hardware_concurrency(), jobs_used,
               peak_rss_bytes());
  if (include_trace_cache) {
    const workload::TraceCache& cache = workload::TraceCache::global();
    std::fprintf(f,
                 "  \"trace_cache\": {\n"
                 "    \"hits\": %" PRIu64 ",\n"
                 "    \"misses\": %" PRIu64 ",\n"
                 "    \"checkpoint_hits\": %" PRIu64 ",\n"
                 "    \"checkpoint_misses\": %" PRIu64 ",\n"
                 "    \"draw_hits\": %" PRIu64 ",\n"
                 "    \"draw_misses\": %" PRIu64 ",\n"
                 "    \"calibration_hits\": %" PRIu64 ",\n"
                 "    \"calibration_misses\": %" PRIu64 ",\n"
                 "    \"spool_hits\": %" PRIu64 ",\n"
                 "    \"spool_misses\": %" PRIu64 ",\n"
                 "    \"entries\": %zu,\n"
                 "    \"resident_bytes\": %zu\n"
                 "  },\n",
                 cache.hits(), cache.misses(), cache.checkpoint_hits(),
                 cache.checkpoint_misses(), cache.draw_hits(),
                 cache.draw_misses(), cache.calibration_hits(),
                 cache.calibration_misses(), cache.spool_hits(),
                 cache.spool_misses(), cache.entries(),
                 cache.resident_bytes());
  } else {
    std::fprintf(f,
                 "  \"trace_cache_note\": \"runs execute in isolated child "
                 "processes; see the per-point trace_cache stats\",\n");
  }
  std::fprintf(f, "  \"timestamp_utc\": \"%s\",\n", stamp);
}

/// Writes one parallel-speedup JSON field (trailing comma included). On a
/// single-hardware-thread machine a "speedup" of worker threads over one
/// thread measures only scheduling overhead — the 0.83 artifact an early
/// BENCH_sweep.json captured on a 1-core box — so the field is emitted as
/// null plus a <key>_note explaining why, instead of a misleading number.
inline void write_json_speedup_field(std::FILE* f, const char* key,
                                     double speedup) {
  if (std::thread::hardware_concurrency() <= 1) {
    std::fprintf(f,
                 "  \"%s\": null,\n"
                 "  \"%s_note\": \"single hardware thread: parallel speedup "
                 "is not measurable on this machine\",\n",
                 key, key);
  } else {
    std::fprintf(f, "  \"%s\": %.4f,\n", key, speedup);
  }
}

/// Runs `fn()` with top-level exception reporting; returns the process
/// exit code.
template <typename Fn>
int run_harness(Fn&& fn) {
  try {
    fn();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace rrsim::bench

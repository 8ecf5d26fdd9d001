// Shared plumbing for the harnesses in bench/. Every paper harness
// regenerates one table or figure of the paper, prints the paper's rows
// as aligned text plus a CSV block, and accepts the common flags from
// rrsim/core/options.h plus --reps and --full (paper-scale repetitions).
// Every micro bench times its rows with time_runs() and writes its
// BENCH_*.json record through one JsonWriter (json_writer.h).
#pragma once

#include <chrono>
#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <ctime>
#include <exception>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "json_writer.h"
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

/// Timed calls per measured row, after one untimed warm-up. One run's
/// time does not repeat on a shared 4-thread host: back-to-back records
/// of one binary read 0.0736 and 0.0245 s for the same 4-cluster retained
/// run, so a row is the median of five with the min and max beside it.
constexpr int kTimedRuns = 5;

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The timing protocol of the micro benches: calls `body()` once untimed
/// (trace cache, calibration, page faults and allocator pools warm up
/// there), then kTimedRuns times on a steady clock, and summarizes the
/// timed calls. No timed call is therefore colder than the others; a body
/// that must stay cold by design clears its own caches.
template <typename Body>
Timing time_runs(Body&& body) {
  body();
  std::vector<double> seconds;
  seconds.reserve(kTimedRuns);
  for (int i = 0; i < kTimedRuns; ++i) {
    const auto start = std::chrono::steady_clock::now();
    body();
    seconds.push_back(seconds_since(start));
  }
  return summarize(std::move(seconds));
}

/// time_runs() over a deterministic `run`: every call must return what
/// the warm-up call returned (operator==), since a call that differs is a
/// bug, not noise; throws naming `what` if one does. Returns the timing
/// and that result.
template <typename Run>
auto time_repeatable(const std::string& what, Run&& run) {
  std::optional<std::invoke_result_t<Run&>> first;
  const Timing t = time_runs([&] {
    auto result = run();
    if (!first) {
      first.emplace(std::move(result));
    } else if (!(result == *first)) {
      throw std::runtime_error("determinism violation: " + what +
                               " differs between runs");
    }
  });
  return std::pair{t, std::move(*first)};
}

/// Starts a BENCH_*.json record: opens the top-level object and writes
/// the schema version, the benchmark's name and the execution
/// environment — the machine's hardware concurrency, the worker count
/// used, this process's peak RSS so far, the trace-cache counters (how
/// much stream, checkpoint, draw, calibration and spool work memoization
/// absorbed, and what it holds resident) and a UTC timestamp. An early
/// record was taken on a 1-core box with no way to tell from the JSON;
/// these fields make records comparable across machines and time. Call
/// it after the measurements, so peak RSS and the cache describe them.
/// A process whose cache saw no lookup (micro_scale's parent, whose runs
/// execute in child processes; the kernel and scheduler benches) gets a
/// note instead of an all-zero block that reads as "the cache never hit".
inline JsonWriter begin_record(const char* benchmark, int jobs_used) {
  char stamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &utc);
  }
  JsonWriter w;
  w.begin_object();
  w.field("schema", 2).field("benchmark", benchmark);
  w.field("hardware_concurrency", std::thread::hardware_concurrency());
  w.field("jobs_used", jobs_used).field("peak_rss_bytes", peak_rss_bytes());
  const workload::TraceCache& c = workload::TraceCache::global();
  const std::uint64_t lookups =
      c.hits() + c.misses() + c.checkpoint_hits() + c.checkpoint_misses() +
      c.draw_hits() + c.draw_misses() + c.calibration_hits() +
      c.calibration_misses() + c.spool_hits() + c.spool_misses();
  if (lookups > 0) {
    w.key("trace_cache").begin_object();
    w.field("hits", c.hits()).field("misses", c.misses());
    w.field("checkpoint_hits", c.checkpoint_hits());
    w.field("checkpoint_misses", c.checkpoint_misses());
    w.field("draw_hits", c.draw_hits()).field("draw_misses", c.draw_misses());
    w.field("calibration_hits", c.calibration_hits());
    w.field("calibration_misses", c.calibration_misses());
    w.field("spool_hits", c.spool_hits());
    w.field("spool_misses", c.spool_misses());
    w.field("entries", c.entries());
    w.field("resident_bytes", c.resident_bytes()).end_object();
  } else {
    w.field("trace_cache_note", "no trace-cache lookup in this process");
  }
  w.field("timestamp_utc", stamp);
  return w;
}

/// A 64-bit checksum as 16 hex digits: record readers that parse JSON
/// numbers as doubles would round it above 2^53.
inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Writes `w`'s finished record to `path` and says so.
inline void finish_record(const JsonWriter& w, const std::string& path) {
  w.write_file(path);
  std::printf("\nperf record written to %s\n", path.c_str());
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

// Grid-scale memory/throughput benchmark and perf record.
//
// Runs the same calibrated campaign point in three record/input modes —
// retained (the figure pipelines' default: every JobRecord kept),
// streaming (retain_records = false: per-finish accumulator, per-cluster
// arrival pumps over materialized streams), and windowed (streaming plus
// stream_window > 0: no materialized streams at all, StreamWindow pumps
// pulling one window at a time from checkpointed generators) — at
// increasing scale, and records for each run the model-level accounting
// *and* the process's peak RSS. Each measurement runs in its own child
// process (re-exec via /proc/self/exe), so VmHWM is the high-water of
// exactly one mode at one scale, not of everything the harness ran
// before it.
//
// Guards asserted on every point: all modes run there must report the
// identical average stretch (the streaming and windowed engines'
// bit-identity contracts) and the identical job count. The headline
// numbers: peak-RSS ratio (retained / streaming), the throughput delta,
// and — for windowed — resident trace bytes versus what materialized
// streams would hold (jobs x sizeof(JobSpec)).
//
// The last point (10^3 clusters, ~10^7 jobs) runs windowed-only: that
// regime is exactly what whole-stream resolution cannot reach cheaply,
// and the committed record documents it.
//
//   ./micro_scale [--points=4] [--hours-scale=1.0] [--window=256]
//                 [--out=BENCH_scale.json] plus common flags.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "rrsim/core/experiment.h"
#include "rrsim/metrics/summary.h"

namespace {

using namespace rrsim;
using Clock = std::chrono::steady_clock;

constexpr std::int64_t kMaxInt64 = std::numeric_limits<std::int64_t>::max();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One campaign point: calibrated steady-state load (drains fast, so the
/// run is submission-bound, not backlog-bound), fixed-degree redundancy on
/// half the jobs — the shape of the paper's mitigation studies, scaled up.
core::ExperimentConfig scale_config(std::size_t clusters, double hours,
                                    const std::string& mode,
                                    std::size_t window) {
  core::ExperimentConfig c;
  c.n_clusters = clusters;
  c.nodes_per_cluster = 128;
  c.load_mode = core::LoadMode::kCalibrated;
  c.target_utilization = 0.7;
  c.submit_horizon = hours * 3600.0;
  c.scheme = core::RedundancyScheme::fixed(3);
  c.redundant_fraction = 0.5;
  c.retain_records = mode == "retained";
  if (mode == "windowed") {
    c.stream_window = window;
  } else if (mode != "retained" && mode != "streaming") {
    throw std::invalid_argument("unknown --mode: " + mode);
  }
  c.seed = 1;
  return c;
}

struct ChildResult {
  std::size_t jobs = 0;
  double elapsed_s = 0.0;
  double avg_stretch = 0.0;
  std::size_t live_state_bytes = 0;
  std::size_t trace_bytes = 0;
  std::size_t peak_rss = 0;
  std::uint64_t ops = 0;
  std::uint64_t st_hits = 0;
  std::uint64_t st_misses = 0;
  std::uint64_t ck_hits = 0;
  std::uint64_t ck_misses = 0;
  std::uint64_t dr_hits = 0;
  std::uint64_t dr_misses = 0;
};

/// Child mode: run one experiment, print one machine-readable line.
int run_child(const util::Cli& cli) {
  const auto clusters = static_cast<std::size_t>(
      cli.get_int_in("clusters", 4, 1, std::int64_t{1} << 20));
  const double hours = cli.get_double("hours", 0.5);
  const std::string mode = cli.get_string("mode", "retained");
  const auto window = static_cast<std::size_t>(
      cli.get_int_in("window", 256, 1, kMaxInt64));
  const core::ExperimentConfig config =
      scale_config(clusters, hours, mode, window);

  const auto start = Clock::now();
  const core::SimResult result = core::run_experiment(config);
  const double elapsed = seconds_since(start);
  // Optional second run at the same point: the common-random-number
  // pairing every sweep uses. Its trace lookups hit the checkpoint table
  // the first run published, so the reported counters demonstrate the
  // cross-point hit rate inside one process (untimed — `elapsed` covers
  // the first run only).
  if (cli.get_bool("ck-rerun", false)) {
    const core::SimResult rerun = core::run_experiment(config);
    if (rerun.jobs_generated != result.jobs_generated) {
      std::fprintf(stderr, "rerun disagreed on job count\n");
      return 1;
    }
  }

  const metrics::ScheduleMetrics m =
      result.streamed ? result.stream.metrics()
                      : metrics::compute_metrics(result.records);
  const std::uint64_t ops = result.ops.submits + result.ops.starts +
                            result.ops.finishes + result.ops.cancels +
                            result.ops.sched_passes;
  const workload::TraceCache& cache = workload::TraceCache::global();
  const std::size_t rss = rrsim::bench::peak_rss_bytes();
  // The cache counters are this child's own: each measurement process has
  // its own global TraceCache, so the parent can report real per-point
  // cache activity instead of its own (idle) cache.
  std::printf("SCALE jobs=%zu elapsed=%.6f stretch=%.17g live=%zu "
              "trace=%zu rss=%zu ops=%" PRIu64 " sthits=%" PRIu64
              " stmisses=%" PRIu64 " ckhits=%" PRIu64 " ckmisses=%" PRIu64
              " drhits=%" PRIu64 " drmisses=%" PRIu64 "\n",
              static_cast<std::size_t>(result.jobs_generated), elapsed,
              m.avg_stretch, result.live_state_bytes,
              result.resident_trace_bytes, rss, ops, cache.hits(),
              cache.misses(), cache.checkpoint_hits(),
              cache.checkpoint_misses(), cache.draw_hits(),
              cache.draw_misses());
  // Hard resident-set budget (the CI smoke): a regression that re-grows
  // the resident set past the budget fails the run, not just a number in
  // a JSON nobody reads.
  const std::int64_t budget_mb = cli.get_int("assert-rss-mb", 0);
  if (budget_mb > 0 &&
      rss > static_cast<std::size_t>(budget_mb) * 1048576) {
    std::fprintf(stderr,
                 "peak RSS %.1f MiB exceeds the --assert-rss-mb=%lld "
                 "budget\n",
                 static_cast<double>(rss) / 1048576.0,
                 static_cast<long long>(budget_mb));
    return 1;
  }
  return 0;
}

/// Runs one (clusters, hours, mode) measurement in a fresh child process
/// and parses its SCALE line. Child stderr passes through to ours.
/// The /proc/self/exe link must be resolved *here*: popen's child is a
/// shell, in which the link points at the shell, not at this binary.
ChildResult run_point(std::size_t clusters, double hours,
                      const std::string& mode, std::size_t window,
                      bool ck_rerun) {
  char self[512];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve own binary path");
  self[n] = '\0';
  char cmd[768];
  std::snprintf(cmd, sizeof cmd,
                "'%s' --scale-child --clusters=%zu --hours=%.4f "
                "--mode=%s --window=%zu --ck-rerun=%d",
                self, clusters, hours, mode.c_str(), window,
                ck_rerun ? 1 : 0);
  std::FILE* pipe = popen(cmd, "r");
  if (pipe == nullptr) {
    throw std::runtime_error("cannot spawn child measurement process");
  }
  ChildResult r;
  bool parsed = false;
  char line[512];
  while (std::fgets(line, sizeof line, pipe) != nullptr) {
    if (std::sscanf(line,
                    "SCALE jobs=%zu elapsed=%lf stretch=%lf live=%zu "
                    "trace=%zu rss=%zu ops=%" SCNu64 " sthits=%" SCNu64
                    " stmisses=%" SCNu64 " ckhits=%" SCNu64
                    " ckmisses=%" SCNu64 " drhits=%" SCNu64
                    " drmisses=%" SCNu64,
                    &r.jobs, &r.elapsed_s, &r.avg_stretch,
                    &r.live_state_bytes, &r.trace_bytes, &r.peak_rss, &r.ops,
                    &r.st_hits, &r.st_misses, &r.ck_hits, &r.ck_misses,
                    &r.dr_hits, &r.dr_misses) == 13) {
      parsed = true;
    }
  }
  const int status = pclose(pipe);
  if (status != 0 || !parsed) {
    throw std::runtime_error("child measurement failed (clusters=" +
                             std::to_string(clusters) + " mode=" + mode +
                             ")");
  }
  return r;
}

struct Point {
  std::size_t clusters;
  double hours;
  bool all_modes;  // false: windowed-only (the grid-scale record point)
};

}  // namespace

int main(int argc, char** argv) {
  return rrsim::bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    if (cli.get_bool("scale-child", false)) {
      std::exit(run_child(cli));
    }
    // Hours per point chosen so calibrated 0.7-utilization Lublin streams
    // (~100 jobs per cluster-hour on 128 nodes) generate ~10^4 / ~10^5 /
    // ~10^6 / ~10^7 grid jobs; --hours-scale shrinks or stretches every
    // point (the ctest smoke uses a small fraction).
    const double hscale = cli.get_double("hours-scale", 1.0);
    const auto window = static_cast<std::size_t>(
        cli.get_int_in("window", 256, 1, kMaxInt64));
    const std::string out_path = cli.get_string("out", "BENCH_scale.json");
    const std::array<Point, 4> all_points{
        Point{4, 25.0 * hscale, true},
        Point{16, 62.5 * hscale, true},
        Point{64, 156.25 * hscale, true},
        // ~10^7 jobs across 10^3 clusters: whole-stream resolution would
        // hold ~320 MB of JobSpecs (plus the TraceCache copy); windowed
        // holds O(window x clusters). Windowed-only by design.
        Point{1000, 100.0 * hscale, false},
    };
    const auto n_points = static_cast<std::size_t>(cli.get_int_in(
        "points", 4, 1, static_cast<std::int64_t>(all_points.size())));

    std::printf("=== micro_scale - memory-budgeted grid-scale campaigns "
                "===\n");
    std::printf("retained vs streaming vs windowed (W=%zu) modes, one child "
                "process per measurement\n\n",
                window);
    std::printf("%9s %9s | %8s %8s | %8s %8s | %8s %8s %9s | %7s\n",
                "clusters", "jobs", "ret s", "ret rss", "str s", "str rss",
                "win s", "win rss", "win trace", "trace x");

    struct Row {
      Point p;
      ChildResult retained;
      ChildResult streaming;
      ChildResult windowed;
    };
    std::vector<Row> rows;
    for (std::size_t i = 0; i < n_points; ++i) {
      const Point p = all_points[i];
      Row row{p, {}, {}, {}};
      if (p.all_modes) {
        row.retained = run_point(p.clusters, p.hours, "retained", window,
                                 false);
        row.streaming = run_point(p.clusters, p.hours, "streaming", window,
                                  false);
      }
      row.windowed =
          run_point(p.clusters, p.hours, "windowed", window, p.all_modes);
      const ChildResult& win = row.windowed;
      if (p.all_modes) {
        const ChildResult& ret = row.retained;
        const ChildResult& str = row.streaming;
        // The bit-identity guards: same schedule, same metrics, all three
        // modes — including windowed vs streaming at the 10^6 point.
        if (ret.jobs != str.jobs || ret.avg_stretch != str.avg_stretch) {
          throw std::runtime_error(
              "equivalence violation: retained and streaming modes "
              "disagree");
        }
        if (win.jobs != str.jobs || win.avg_stretch != str.avg_stretch) {
          throw std::runtime_error(
              "equivalence violation: windowed and streaming modes "
              "disagree");
        }
      }
      // What whole-stream resolution would hold resident for this trace.
      const double materialized = static_cast<double>(win.jobs) *
                                  sizeof(workload::JobSpec);
      const double trace_ratio =
          materialized / static_cast<double>(win.trace_bytes);
      if (p.all_modes) {
        std::printf(
            "%9zu %9zu | %8.2f %7.1fM | %8.2f %7.1fM | %8.2f %7.1fM "
            "%8.2fM | %6.1fx\n",
            p.clusters, win.jobs, row.retained.elapsed_s,
            static_cast<double>(row.retained.peak_rss) / 1048576.0,
            row.streaming.elapsed_s,
            static_cast<double>(row.streaming.peak_rss) / 1048576.0,
            win.elapsed_s, static_cast<double>(win.peak_rss) / 1048576.0,
            static_cast<double>(win.trace_bytes) / 1048576.0, trace_ratio);
      } else {
        std::printf(
            "%9zu %9zu | %8s %8s | %8s %8s | %8.2f %7.1fM %8.2fM | "
            "%6.1fx\n",
            p.clusters, win.jobs, "-", "-", "-", "-", win.elapsed_s,
            static_cast<double>(win.peak_rss) / 1048576.0,
            static_cast<double>(win.trace_bytes) / 1048576.0, trace_ratio);
      }
      rows.push_back(row);
    }

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + out_path);
    std::fprintf(f, "{\n  \"benchmark\": \"micro_scale\",\n");
    // Parent process: the measured runs happen in children, so the
    // parent's own trace cache would report all zeros — suppress it.
    rrsim::bench::write_json_env_fields(f, 1, false);
    std::fprintf(f,
                 "  \"utilization\": 0.7,\n"
                 "  \"scheme\": \"fixed3 p=0.5\",\n"
                 "  \"stream_window\": %zu,\n"
                 "  \"equivalence_checked\": true,\n"
                 "  \"points\": [\n",
                 window);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      const ChildResult& win = row.windowed;
      std::fprintf(f,
                   "    {\"clusters\": %zu, \"hours\": %.4f, \"jobs\": %zu,\n",
                   row.p.clusters, row.p.hours, win.jobs);
      if (row.p.all_modes) {
        std::fprintf(
            f,
            "     \"retained\": {\"seconds\": %.4f, \"live_state_bytes\": "
            "%zu, \"trace_bytes\": %zu, \"peak_rss_bytes\": %zu, \"ops\": "
            "%" PRIu64 "},\n"
            "     \"streaming\": {\"seconds\": %.4f, \"live_state_bytes\": "
            "%zu, \"trace_bytes\": %zu, \"peak_rss_bytes\": %zu, \"ops\": "
            "%" PRIu64 "},\n",
            row.retained.elapsed_s, row.retained.live_state_bytes,
            row.retained.trace_bytes, row.retained.peak_rss,
            row.retained.ops, row.streaming.elapsed_s,
            row.streaming.live_state_bytes, row.streaming.trace_bytes,
            row.streaming.peak_rss, row.streaming.ops);
      }
      const double materialized =
          static_cast<double>(win.jobs) * sizeof(workload::JobSpec);
      std::fprintf(
          f,
          "     \"windowed\": {\"seconds\": %.4f, \"live_state_bytes\": "
          "%zu, \"resident_trace_bytes\": %zu, \"materialized_trace_bytes\": "
          "%.0f, \"trace_ratio\": %.2f, \"peak_rss_bytes\": %zu, \"ops\": "
          "%" PRIu64 ", \"trace_cache\": {\"hits\": %" PRIu64
          ", \"misses\": %" PRIu64 ", \"checkpoint_hits\": %" PRIu64
          ", \"checkpoint_misses\": %" PRIu64 ", \"draw_hits\": %" PRIu64
          ", \"draw_misses\": %" PRIu64 "}}",
          win.elapsed_s, win.live_state_bytes, win.trace_bytes, materialized,
          materialized / static_cast<double>(win.trace_bytes), win.peak_rss,
          win.ops, win.st_hits, win.st_misses, win.ck_hits, win.ck_misses,
          win.dr_hits, win.dr_misses);
      if (row.p.all_modes) {
        std::fprintf(
            f,
            ",\n     \"rss_ratio\": %.4f, \"throughput_delta\": %.4f}%s\n",
            static_cast<double>(row.retained.peak_rss) /
                static_cast<double>(row.streaming.peak_rss),
            (static_cast<double>(row.streaming.ops) /
             row.streaming.elapsed_s) /
                    (static_cast<double>(row.retained.ops) /
                     row.retained.elapsed_s) -
                1.0,
            i + 1 < rows.size() ? "," : "");
      } else {
        std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
      }
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nperf record written to %s\n", out_path.c_str());
  });
}

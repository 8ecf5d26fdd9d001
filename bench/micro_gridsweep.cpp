// Grid-scale sweep benchmark and perf record: a real multi-point figure
// at 10^3 clusters sharing one memoized workload.
//
// One CampaignSweep carries 8 sweep points — {R2, R4} x redundant
// fraction {0.25, 0.5, 0.75, 1.0} — over the same calibrated windowed
// workload (10^3 clusters x 128 nodes, ~10^6 jobs per point), all in ONE
// process. Only treatment knobs differ between the points, so they share
// every TraceCache entry: the first lookup of each load calibration,
// checkpoint table and draw segment computes it, and every other lookup
// (a later point, or a concurrent one waiting on that computation) hits.
//
// Guards asserted in-harness (a violation aborts, it is not a number in
// a JSON):
//   - the per-point result checksum is identical across --jobs 1/2/4/8
//     AND the cold baseline (the cache is bit-transparent);
//   - every sweep reports nonzero calibration, checkpoint AND
//     draw-segment hits (the sharing actually happened), and the three
//     sweeps report identical cache counts (each key is computed once,
//     whatever the worker count).
//
// Cold vs warm is a MATCHED comparison: simulation cost grows ~2x with
// the redundant fraction across these points, so comparing the first
// point's elapsed against other points' would confound treatment cost
// with cache state. Instead a baseline pass first runs every point with
// the cache cleared before it (all cold), and the record compares each
// later point's warm time in the serial sweep (the first point computed
// the shared inputs) against the same point's cold-baseline time. Every
// point runs once per pass (a repeat would no longer be cold, and a pass
// takes minutes at full scale), and each time is recorded through the
// same bench::summarize as the other benches' rows, with "runs": 1.
// Timing ratios are recorded, not asserted — the ctest smoke runs at toy
// scale where they are pure noise. Each row's --jobs value is capped at
// the hardware threads like a user's (exec::cap_to_hardware), and the
// row records the count it ran with as "jobs_used".
//
//   ./micro_gridsweep [--clusters=1000] [--hours=11] [--window=256]
//                     [--assert-rss-mb=0] [--out=BENCH_gridsweep.json]

#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "rrsim/core/experiment.h"
#include "rrsim/core/sweep.h"
#include "rrsim/exec/jobs.h"
#include "rrsim/metrics/summary.h"

namespace {

using namespace rrsim;

struct SweepPoint {
  int degree;
  double fraction;
};

constexpr std::array<SweepPoint, 8> kPoints{
    SweepPoint{2, 0.25}, SweepPoint{2, 0.5}, SweepPoint{2, 0.75},
    SweepPoint{2, 1.0},  SweepPoint{4, 0.25}, SweepPoint{4, 0.5},
    SweepPoint{4, 0.75}, SweepPoint{4, 1.0}};

/// One figure point: calibrated windowed streaming workload, identical
/// trace inputs for every point (only the treatment knobs vary, and no
/// cache key reads them — that is the sharing under test).
core::ExperimentConfig point_config(std::size_t clusters, double hours,
                                    std::size_t window,
                                    const SweepPoint& p) {
  core::ExperimentConfig c;
  c.n_clusters = clusters;
  c.nodes_per_cluster = 128;
  c.load_mode = core::LoadMode::kCalibrated;
  c.target_utilization = 0.7;
  c.submit_horizon = hours * 3600.0;
  c.scheme = core::RedundancyScheme::fixed(p.degree);
  c.redundant_fraction = p.fraction;
  c.retain_records = false;
  c.stream_window = window;
  c.seed = 1;
  return c;
}

struct PointRun {
  double elapsed = 0.0;
  std::uint64_t jobs = 0;
  double avg_stretch = 0.0;
  double cv_stretch = 0.0;
  double max_stretch = 0.0;
  double avg_turnaround = 0.0;
  double end_time = 0.0;
};

struct SweepRun {
  double total_seconds = 0.0;
  std::vector<PointRun> points;
  core::SweepCacheStats cache;
  std::uint64_t checksum = 0;
};

/// FNV-style digest over every per-point result double (exact bits) and
/// job count, in point order: the cross---jobs equivalence oracle.
std::uint64_t results_checksum(const std::vector<PointRun>& points) {
  std::uint64_t checksum = 1469598103934665603ULL;
  const auto mix = [&checksum](std::uint64_t v) {
    checksum = (checksum * 6364136223846793005ULL) ^ v;
  };
  const auto bits = [](double d) {
    std::uint64_t v = 0;
    std::memcpy(&v, &d, sizeof v);
    return v;
  };
  for (const PointRun& p : points) {
    mix(p.jobs);
    mix(bits(p.avg_stretch));
    mix(bits(p.cv_stretch));
    mix(bits(p.max_stretch));
    mix(bits(p.avg_turnaround));
    mix(bits(p.end_time));
  }
  return checksum;
}

PointRun run_point(const core::ExperimentConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  const core::SimResult r =
      core::run_experiment(config, core::thread_workspace());
  PointRun p;
  p.elapsed = bench::seconds_since(start);
  p.jobs = r.jobs_generated;
  const metrics::ScheduleMetrics m = r.stream.metrics();
  p.avg_stretch = m.avg_stretch;
  p.cv_stretch = m.cv_stretch_percent;
  p.max_stretch = m.max_stretch;
  p.avg_turnaround = m.avg_turnaround;
  p.end_time = r.end_time;
  return p;
}

/// The matched cold reference: every point pays full trace generation
/// (load calibration + checkpoint scan + draw-segment fast-forward)
/// because the cache is cleared before each one. Same configs, same
/// serial order, no sweep machinery in the timing path beyond what the
/// sweep's map lambda runs.
std::vector<PointRun> run_cold_baseline(std::size_t clusters, double hours,
                                        std::size_t window) {
  std::vector<PointRun> points;
  points.reserve(kPoints.size());
  for (const SweepPoint& sp : kPoints) {
    workload::TraceCache::global().clear();
    points.push_back(run_point(point_config(clusters, hours, window, sp)));
  }
  return points;
}

SweepRun run_sweep(std::size_t clusters, double hours, std::size_t window,
                   int jobs_used) {
  // Each sweep starts against an empty cache so its counters (and the
  // jobs=1 sweep's cold first point) describe this sweep alone, not
  // leftovers from the previous --jobs value.
  workload::TraceCache::global().clear();
  core::CampaignSweep sweep(1, jobs_used);
  SweepRun out;
  out.points.resize(kPoints.size());
  for (std::size_t i = 0; i < kPoints.size(); ++i) {
    const core::ExperimentConfig config =
        point_config(clusters, hours, window, kPoints[i]);
    sweep.runner().add(
        1, [config](int) { return run_point(config); },
        [&out, i](int, PointRun p) { out.points[i] = p; });
  }
  const auto start = std::chrono::steady_clock::now();
  sweep.run();
  out.total_seconds = bench::seconds_since(start);
  out.cache = sweep.last_cache_stats();
  out.checksum = results_checksum(out.points);

  // In-harness guards, not record fields: the sharing must actually have
  // happened, whatever the scale.
  if (out.cache.checkpoint_hits == 0 || out.cache.draw_hits == 0 ||
      out.cache.calibration_hits == 0) {
    throw std::runtime_error(
        "cache-sharing violation: sweep on " + std::to_string(jobs_used) +
        " workers saw no checkpoint, draw-segment or calibration hits "
        "(checkpoint_hits=" + std::to_string(out.cache.checkpoint_hits) +
        " draw_hits=" + std::to_string(out.cache.draw_hits) +
        " calibration_hits=" + std::to_string(out.cache.calibration_hits) +
        ")");
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  return rrsim::bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const auto clusters = static_cast<std::size_t>(
        cli.get_int_in("clusters", 1000, 1, std::int64_t{1} << 20));
    const double hours = cli.get_double("hours", 11.0);
    const auto window = static_cast<std::size_t>(cli.get_int_in(
        "window", 256, 1, std::numeric_limits<std::int64_t>::max()));
    const std::string out_path =
        cli.get_string("out", "BENCH_gridsweep.json");
    const std::int64_t budget_mb = cli.get_int("assert-rss-mb", 0);
    cli.reject_unread();
    if (!(hours > 0.0)) {
      throw std::invalid_argument("--hours must be > 0");
    }

    std::printf("=== micro_gridsweep - grid-scale sweeps over one shared "
                "workload ===\n");
    std::printf(
        "%zu points ({R2,R4} x fraction {.25,.5,.75,1}) x %zu clusters, "
        "windowed (W=%zu), one process;\nper-point results must be "
        "bit-identical across --jobs 1/2/4/8 (checksum-enforced)\n\n",
        kPoints.size(), clusters, window);

    std::printf("cold baseline (cache cleared before every point):\n");
    const std::vector<PointRun> cold = run_cold_baseline(clusters, hours,
                                                         window);
    const std::uint64_t cold_checksum = results_checksum(cold);
    double cold_total = 0.0;
    for (const PointRun& p : cold) cold_total += p.elapsed;
    std::printf("  %7.2fs total | checksum %016llx\n\n", cold_total,
                static_cast<unsigned long long>(cold_checksum));

    constexpr std::array<int, 4> kJobs{1, 2, 4, 8};
    std::vector<SweepRun> sweeps;
    for (const int jobs : kJobs) {
      const int used = exec::cap_to_hardware(jobs);
      SweepRun run = run_sweep(clusters, hours, window, used);
      std::printf("jobs=%d (%d used): %7.2fs total | ckpt %" PRIu64
                  "h/%" PRIu64 "m draw %" PRIu64 "h/%" PRIu64 "m calib %" PRIu64
                  "h/%" PRIu64 "m | checksum %016llx\n",
                  jobs, used, run.total_seconds, run.cache.checkpoint_hits,
                  run.cache.checkpoint_misses, run.cache.draw_hits,
                  run.cache.draw_misses, run.cache.calibration_hits,
                  run.cache.calibration_misses,
                  static_cast<unsigned long long>(run.checksum));
      if (run.checksum != cold_checksum) {
        throw std::runtime_error(
            "determinism violation: sweep results at --jobs=" +
            std::to_string(jobs) +
            " diverged from the cold-baseline reference");
      }
      if (!sweeps.empty() && run.cache != sweeps.front().cache) {
        throw std::runtime_error(
            "cache-count violation: the sweep at --jobs=" +
            std::to_string(jobs) + " counted other trace-cache hits or "
            "misses than the sweep at --jobs=" + std::to_string(kJobs[0]));
      }
      sweeps.push_back(std::move(run));
    }

    // Matched cold vs warm from the serial sweep (clean per-point
    // timing: no concurrent neighbors). Its first point computes the
    // shared inputs, cold in both passes; every later point is compared
    // against ITS OWN cold-baseline time.
    const std::vector<PointRun>& serial = sweeps.front().points;
    double warm_sum = 0.0;
    double cold_later_sum = 0.0;
    for (std::size_t i = 1; i < serial.size(); ++i) {
      warm_sum += serial[i].elapsed;
      cold_later_sum += cold[i].elapsed;
    }
    const double n_later = static_cast<double>(serial.size() - 1);
    const double warm_mean = warm_sum / n_later;
    const double cold_mean = cold_later_sum / n_later;
    std::printf("\nlater points, matched: cold-baseline mean %.2fs vs "
                "warm (serial sweep) mean %.2fs — %.2fx\n",
                cold_mean, warm_mean, cold_mean / warm_mean);
    std::printf("first point (cold in both passes): baseline %.2fs, "
                "sweep %.2fs\n", cold.front().elapsed,
                serial.front().elapsed);
    std::printf("jobs per point: %" PRIu64 "\n", serial.front().jobs);

    bench::JsonWriter w = bench::begin_record(
        "micro_gridsweep", exec::cap_to_hardware(kJobs.back()));
    const std::size_t rss = rrsim::bench::peak_rss_bytes();
    if (budget_mb > 0 &&
        rss > static_cast<std::size_t>(budget_mb) * 1048576) {
      throw std::runtime_error(
          "peak RSS " + std::to_string(rss / 1048576) +
          " MiB exceeds the --assert-rss-mb=" + std::to_string(budget_mb) +
          " budget");
    }

    // Every time below is one run: the summary of a single sample.
    const auto once = [](double seconds) {
      return bench::summarize({seconds});
    };
    const auto point_seconds = [&](const std::vector<PointRun>& points) {
      w.begin_array();
      for (const PointRun& p : points) w.value(once(p.elapsed));
      w.end_array();
    };
    w.field("clusters", clusters).field("nodes_per_cluster", 128);
    w.field("utilization", 0.7, 1).field("hours", hours);
    w.field("stream_window", window);
    w.field("points", "{R2,R4} x fraction {0.25,0.5,0.75,1.0}");
    w.field("jobs_per_point", serial.front().jobs);
    w.field("equivalence_checked", true);
    w.key("cold_baseline_point_seconds");
    point_seconds(cold);
    w.field("cold_later_points_mean_seconds", cold_mean);
    w.field("warm_later_points_mean_seconds", warm_mean);
    w.field("cold_over_warm_matched", cold_mean / warm_mean);
    w.key("sweeps").begin_array();
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      const SweepRun& run = sweeps[i];
      const core::SweepCacheStats& c = run.cache;
      w.begin_object();
      w.field("jobs", kJobs[i]);
      w.field("jobs_used", exec::cap_to_hardware(kJobs[i]));
      w.field("total_seconds", once(run.total_seconds));
      w.field("results_checksum", bench::hex64(run.checksum));
      w.key("trace_cache").begin_object(true);
      w.field("checkpoint_hits", c.checkpoint_hits);
      w.field("checkpoint_misses", c.checkpoint_misses);
      w.field("draw_hits", c.draw_hits).field("draw_misses", c.draw_misses);
      w.field("calibration_hits", c.calibration_hits);
      w.field("calibration_misses", c.calibration_misses);
      w.field("spool_hits", c.spool_hits).field("spool_misses", c.spool_misses);
      w.end_object();
      w.key("point_seconds");
      point_seconds(run.points);
      w.end_object();
    }
    w.end_array().end_object();
    bench::finish_record(w, out_path);
  });
}

// Grid-scale sweep benchmark and perf record: cache-affine point
// scheduling over a real multi-point figure at 10^3 clusters.
//
// One CampaignSweep carries 8 sweep points — {R2, R4} x redundant
// fraction {0.25, 0.5, 0.75, 1.0} — over the same calibrated windowed
// workload (10^3 clusters x 128 nodes, ~10^6 jobs per point), all in ONE
// process. Every point shares one core::trace_affinity, so the runner
// executes the first-queued point as the cold leader (it generates the
// shared load calibrations, checkpoint tables and draw segments) and the
// remaining seven warm, straight out of the TraceCache.
//
// Guards asserted in-harness (a violation aborts, it is not a number in
// a JSON):
//   - the per-point result checksum is identical across --jobs 1/2/8
//     AND the cold baseline (cache-affine scheduling is scheduling
//     only, and the cache is bit-transparent);
//   - every sweep reports nonzero calibration, checkpoint AND
//     draw-segment hits (the sharing actually happened).
//
// Cold vs warm is a MATCHED comparison: simulation cost grows ~2x with
// the redundant fraction across these points, so comparing the leader's
// elapsed against other points' would confound treatment cost with
// cache state. Instead a baseline pass first runs every point with the
// cache cleared before it (all cold), and the record compares each
// follower's warm time in the affine sweep against the same point's
// cold-baseline time. Timing ratios are recorded, not asserted — the
// ctest smoke runs at toy scale where they are pure noise.
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
#include "rrsim/metrics/summary.h"

namespace {

using namespace rrsim;
using Clock = std::chrono::steady_clock;

struct SweepPoint {
  int degree;
  double fraction;
};

constexpr std::array<SweepPoint, 8> kPoints{
    SweepPoint{2, 0.25}, SweepPoint{2, 0.5}, SweepPoint{2, 0.75},
    SweepPoint{2, 1.0},  SweepPoint{4, 0.25}, SweepPoint{4, 0.5},
    SweepPoint{4, 0.75}, SweepPoint{4, 1.0}};

/// One figure point: calibrated windowed streaming workload, identical
/// trace inputs for every point (only the treatment knobs vary, which
/// trace_affinity ignores — that is the sharing under test).
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
  const auto start = Clock::now();
  const core::SimResult r =
      core::run_experiment(config, core::thread_workspace());
  PointRun p;
  p.elapsed = std::chrono::duration<double>(Clock::now() - start).count();
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
/// because the cache is
/// cleared before each one. Same configs, same serial order, no sweep
/// machinery in the timing path beyond what the affine sweep's map
/// lambda runs.
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
                   int jobs) {
  // Each sweep starts against an empty cache so its counters (and the
  // jobs=1 sweep's cold-leader timing) describe this sweep alone, not
  // leftovers from the previous --jobs value.
  workload::TraceCache::global().clear();
  core::CampaignSweep sweep(1, jobs);
  SweepRun out;
  out.points.resize(kPoints.size());
  for (std::size_t i = 0; i < kPoints.size(); ++i) {
    const core::ExperimentConfig config =
        point_config(clusters, hours, window, kPoints[i]);
    sweep.runner().add_affine(
        1, core::trace_affinity(config),
        [config](int) { return run_point(config); },
        [&out, i](int, PointRun p) { out.points[i] = p; });
  }
  const auto start = Clock::now();
  sweep.run();
  out.total_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  out.cache = sweep.last_cache_stats();
  out.checksum = results_checksum(out.points);

  // In-harness guards, not record fields: the sharing must actually have
  // happened, whatever the scale.
  if (out.cache.checkpoint_hits == 0 || out.cache.draw_hits == 0 ||
      out.cache.calibration_hits == 0) {
    throw std::runtime_error(
        "cache-affinity violation: sweep at --jobs=" + std::to_string(jobs) +
        " saw no checkpoint, draw-segment or calibration hits "
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
    (void)rrsim::bench::repetitions(cli, 1);  // consumes --jobs/env budget
    const auto clusters = static_cast<std::size_t>(
        cli.get_int_in("clusters", 1000, 1, std::int64_t{1} << 20));
    const double hours = cli.get_double("hours", 11.0);
    const auto window = static_cast<std::size_t>(cli.get_int_in(
        "window", 256, 1, std::numeric_limits<std::int64_t>::max()));
    const std::string out_path =
        cli.get_string("out", "BENCH_gridsweep.json");
    if (!(hours > 0.0)) {
      throw std::invalid_argument("--hours must be > 0");
    }

    std::printf("=== micro_gridsweep - cache-affine grid-scale sweeps "
                "===\n");
    std::printf(
        "%zu points ({R2,R4} x fraction {.25,.5,.75,1}) x %zu clusters, "
        "windowed (W=%zu), one process;\nper-point results must be "
        "bit-identical across --jobs 1/2/8 (checksum-enforced)\n\n",
        kPoints.size(), clusters, window);

    std::printf("cold baseline (cache cleared before every point):\n");
    const std::vector<PointRun> cold = run_cold_baseline(clusters, hours,
                                                         window);
    const std::uint64_t cold_checksum = results_checksum(cold);
    double cold_total = 0.0;
    for (const PointRun& p : cold) cold_total += p.elapsed;
    std::printf("  %7.2fs total | checksum %016llx\n\n", cold_total,
                static_cast<unsigned long long>(cold_checksum));

    constexpr std::array<int, 3> kJobs{1, 2, 8};
    std::vector<SweepRun> sweeps;
    for (const int jobs : kJobs) {
      SweepRun run = run_sweep(clusters, hours, window, jobs);
      std::printf("jobs=%d: %7.2fs total | ckpt %" PRIu64 "h/%" PRIu64
                  "m draw %" PRIu64 "h/%" PRIu64 "m calib %" PRIu64
                  "h/%" PRIu64 "m | checksum %016llx\n",
                  jobs, run.total_seconds, run.cache.checkpoint_hits,
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
      sweeps.push_back(std::move(run));
    }

    // Matched cold vs warm from the serial sweep (clean per-point
    // timing: no concurrent neighbors). The first-queued point is the
    // affinity group's leader and pays the generation in the sweep too;
    // every follower is compared against ITS OWN cold-baseline time.
    const std::vector<PointRun>& serial = sweeps.front().points;
    double warm_sum = 0.0;
    double cold_follower_sum = 0.0;
    for (std::size_t i = 1; i < serial.size(); ++i) {
      warm_sum += serial[i].elapsed;
      cold_follower_sum += cold[i].elapsed;
    }
    const double n_followers = static_cast<double>(serial.size() - 1);
    const double warm_mean = warm_sum / n_followers;
    const double cold_mean = cold_follower_sum / n_followers;
    std::printf("\nfollower points, matched: cold-baseline mean %.2fs vs "
                "warm (affine sweep) mean %.2fs — %.2fx\n",
                cold_mean, warm_mean, cold_mean / warm_mean);
    std::printf("leader point (cold in both passes): baseline %.2fs, "
                "sweep %.2fs\n", cold.front().elapsed,
                serial.front().elapsed);
    std::printf("jobs per point: %" PRIu64 "\n", serial.front().jobs);

    const std::size_t rss = rrsim::bench::peak_rss_bytes();
    const std::int64_t budget_mb = cli.get_int("assert-rss-mb", 0);
    if (budget_mb > 0 &&
        rss > static_cast<std::size_t>(budget_mb) * 1048576) {
      throw std::runtime_error(
          "peak RSS " + std::to_string(rss / 1048576) +
          " MiB exceeds the --assert-rss-mb=" + std::to_string(budget_mb) +
          " budget");
    }

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + out_path);
    std::fprintf(f, "{\n  \"benchmark\": \"micro_gridsweep\",\n");
    rrsim::bench::write_json_env_fields(
        f, static_cast<int>(kJobs.back()));
    std::fprintf(f,
                 "  \"clusters\": %zu,\n"
                 "  \"nodes_per_cluster\": 128,\n"
                 "  \"utilization\": 0.7,\n"
                 "  \"hours\": %.4f,\n"
                 "  \"stream_window\": %zu,\n"
                 "  \"points\": \"{R2,R4} x fraction {0.25,0.5,0.75,1.0}\","
                 "\n"
                 "  \"jobs_per_point\": %" PRIu64 ",\n"
                 "  \"equivalence_checked\": true,\n"
                 "  \"cold_baseline_point_seconds\": [",
                 clusters, hours, window, serial.front().jobs);
    for (std::size_t i = 0; i < cold.size(); ++i) {
      std::fprintf(f, "%s%.4f", i == 0 ? "" : ", ", cold[i].elapsed);
    }
    std::fprintf(f,
                 "],\n"
                 "  \"cold_follower_mean_seconds\": %.4f,\n"
                 "  \"warm_follower_mean_seconds\": %.4f,\n"
                 "  \"cold_over_warm_matched\": %.4f,\n"
                 "  \"sweeps\": [\n",
                 cold_mean, warm_mean, cold_mean / warm_mean);
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
      const SweepRun& run = sweeps[s];
      std::fprintf(f,
                   "    {\"jobs\": %d, \"total_seconds\": %.4f,\n"
                   "     \"results_checksum\": \"%016llx\",\n"
                   "     \"trace_cache\": {\"checkpoint_hits\": %" PRIu64
                   ", \"checkpoint_misses\": %" PRIu64
                   ", \"draw_hits\": %" PRIu64 ", \"draw_misses\": %" PRIu64
                   ", \"calibration_hits\": %" PRIu64
                   ", \"calibration_misses\": %" PRIu64
                   ", \"spool_hits\": %" PRIu64 ", \"spool_misses\": %" PRIu64
                   "},\n"
                   "     \"point_seconds\": [",
                   kJobs[s], run.total_seconds,
                   static_cast<unsigned long long>(run.checksum),
                   run.cache.checkpoint_hits, run.cache.checkpoint_misses,
                   run.cache.draw_hits, run.cache.draw_misses,
                   run.cache.calibration_hits, run.cache.calibration_misses,
                   run.cache.spool_hits, run.cache.spool_misses);
      for (std::size_t i = 0; i < run.points.size(); ++i) {
        std::fprintf(f, "%s%.4f", i == 0 ? "" : ", ",
                     run.points[i].elapsed);
      }
      std::fprintf(f, "]}%s\n", s + 1 < sweeps.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nperf record written to %s\n", out_path.c_str());
  });
}

// Windowed input mode (stream_window > 0): pulling the workload through
// O(window)-sized StreamWindow buffers must reproduce the eager
// whole-stream pipeline bit-identically — same schedule, same metrics, on
// both the classic kernel and the PDES kernel — while the resident trace
// state drops from O(total jobs) to O(window x clusters).
#include "rrsim/core/experiment.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "rrsim/core/campaign.h"
#include "rrsim/core/paper.h"
#include "rrsim/metrics/summary.h"
#include "rrsim/util/rng.h"
#include "rrsim/workload/calibrate.h"
#include "rrsim/workload/lublin.h"
#include "rrsim/workload/trace_cache.h"

namespace rrsim::core {
namespace {

ExperimentConfig streaming_config() {
  ExperimentConfig config;
  config.n_clusters = 4;
  config.nodes_per_cluster = 32;
  config.submit_horizon = 3600.0;
  config.scheme = RedundancyScheme::all();
  config.redundant_fraction = 0.5;
  config.seed = 7;
  config.retain_records = false;
  return config;
}

void expect_same_metrics(const metrics::ScheduleMetrics& got,
                         const metrics::ScheduleMetrics& want) {
  EXPECT_EQ(got.jobs, want.jobs);
  EXPECT_EQ(got.avg_stretch, want.avg_stretch);
  EXPECT_EQ(got.cv_stretch_percent, want.cv_stretch_percent);
  EXPECT_EQ(got.max_stretch, want.max_stretch);
  EXPECT_EQ(got.avg_turnaround, want.avg_turnaround);
  EXPECT_EQ(got.avg_wait, want.avg_wait);
}

void expect_same_run(const SimResult& got, const SimResult& want) {
  EXPECT_EQ(got.jobs_generated, want.jobs_generated);
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.ops.starts, want.ops.starts);
  EXPECT_EQ(got.ops.finishes, want.ops.finishes);
  EXPECT_EQ(got.ops.cancels, want.ops.cancels);
  EXPECT_EQ(got.ops.sched_passes, want.ops.sched_passes);
  EXPECT_EQ(got.gateway_cancels, want.gateway_cancels);
  EXPECT_EQ(got.avg_max_queue, want.avg_max_queue);
  EXPECT_EQ(got.stream.jobs(), want.stream.jobs());
  expect_same_metrics(got.stream.metrics(), want.stream.metrics());
  const metrics::ClassifiedMetrics g = got.stream.classified();
  const metrics::ClassifiedMetrics w = want.stream.classified();
  expect_same_metrics(g.all, w.all);
  expect_same_metrics(g.redundant, w.redundant);
  expect_same_metrics(g.non_redundant, w.non_redundant);
}

TEST(Windowed, BitIdenticalToEagerStreamingAcrossWindowsAndEstimators) {
  for (const char* estimator : {"exact", "phi"}) {
    ExperimentConfig config = streaming_config();
    config.estimator = estimator;
    const SimResult eager = run_experiment(config);
    ASSERT_GT(eager.jobs_generated, 500u);
    // W = 1 exercises a refill per job; 64 is a typical window; the huge
    // window degenerates to one pull per cluster.
    for (const std::size_t window :
         {std::size_t{1}, std::size_t{64}, std::size_t{1} << 20}) {
      config.stream_window = window;
      const SimResult windowed = run_experiment(config);
      SCOPED_TRACE(std::string(estimator) + " W=" + std::to_string(window));
      expect_same_run(windowed, eager);
    }
  }
}

TEST(Windowed, RepeatedRunsHitTheDrawSegmentMemoAndStayBitIdentical) {
  // Input resolution memoizes the O(total jobs) user/redundancy substream
  // fast-forward per cluster segment; a repeated sweep point must hit that
  // memo (one hit per cluster) and reproduce the run bit-identically.
  ExperimentConfig config = streaming_config();
  config.stream_window = 64;
  const SimResult first = run_experiment(config);
  const workload::TraceCache& cache = workload::TraceCache::global();
  const std::uint64_t hits_before = cache.draw_hits();
  const std::uint64_t misses_before = cache.draw_misses();
  const SimResult second = run_experiment(config);
  EXPECT_EQ(cache.draw_hits(), hits_before + config.n_clusters);
  EXPECT_EQ(cache.draw_misses(), misses_before);
  expect_same_run(second, first);
  // A different redundant fraction still hits: chance() advances the
  // generator independently of p (see DrawSegmentKey), so fraction sweeps
  // share one fast-forward per segment.
  config.redundant_fraction = 0.25;
  run_experiment(config);
  EXPECT_EQ(cache.draw_hits(), hits_before + 2 * config.n_clusters);
  EXPECT_EQ(cache.draw_misses(), misses_before);
}

// A calibrated windowed workload with retained records, on the classic
// kernel or on PDES.
ExperimentConfig calibrated_config(std::size_t clusters, bool pdes) {
  ExperimentConfig config = streaming_config();
  config.n_clusters = clusters;
  config.load_mode = LoadMode::kCalibrated;
  config.target_utilization = 0.7;
  config.submit_horizon = 1800.0;
  config.stream_window = 64;
  config.retain_records = true;
  if (pdes) {
    config.pdes = true;
    config.cross_cluster_latency = 60.0;
    config.pdes_jobs = 2;
  }
  return config;
}

void expect_same_records(const SimResult& got, const SimResult& want) {
  EXPECT_EQ(got.jobs_generated, want.jobs_generated);
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.duplicate_starts, want.duplicate_starts);
  EXPECT_EQ(got.ops.starts, want.ops.starts);
  EXPECT_EQ(got.ops.cancels, want.ops.cancels);
  EXPECT_EQ(got.ops.sched_passes, want.ops.sched_passes);
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    const metrics::JobRecord& g = got.records[i];
    const metrics::JobRecord& w = want.records[i];
    EXPECT_EQ(g.grid_id, w.grid_id) << "record " << i;
    EXPECT_EQ(g.winner_cluster, w.winner_cluster) << "record " << i;
    EXPECT_EQ(g.submit_time, w.submit_time) << "record " << i;
    EXPECT_EQ(g.start_time, w.start_time) << "record " << i;
    EXPECT_EQ(g.finish_time, w.finish_time) << "record " << i;
  }
}

TEST(Windowed, RepeatedCalibratedRunsHitTheCalibrationMemoOnBothKernels) {
  // Load calibration is one Monte-Carlo estimate per cluster, memoized per
  // cluster: a repeated run must hit once per cluster, miss nothing, and
  // reproduce the run bit for bit on either kernel.
  const workload::TraceCache& cache = workload::TraceCache::global();
  for (const bool pdes : {false, true}) {
    SCOPED_TRACE(pdes ? "pdes" : "classic");
    const ExperimentConfig config = calibrated_config(4, pdes);
    const SimResult first = run_experiment(config);
    ASSERT_GT(first.jobs_generated, 0u);
    const std::uint64_t hits_before = cache.calibration_hits();
    const std::uint64_t misses_before = cache.calibration_misses();
    const SimResult second = run_experiment(config);
    EXPECT_EQ(cache.calibration_hits(), hits_before + config.n_clusters);
    EXPECT_EQ(cache.calibration_misses(), misses_before);
    expect_same_records(second, first);
  }
}

TEST(Windowed, MemoizedCalibrationReproducesThePureCalibrationChain) {
  // The calibrated run must equal a run given, explicitly, the mean
  // inter-arrival times workload::interarrival_for_utilization yields
  // cluster after cluster on the calibration substream (tag 3002 of the
  // seed's master generator, core::detail::kStreamCalibration) — whether
  // its calibrations miss or hit the memo.
  const ExperimentConfig calibrated = calibrated_config(4, false);
  util::Rng calib_rng = util::Rng(calibrated.seed).fork(3002);
  ExperimentConfig explicit_iat = calibrated;
  for (std::size_t i = 0; i < calibrated.n_clusters; ++i) {
    const workload::LublinModel probe(calibrated.base_workload,
                                      calibrated.nodes_of(i));
    explicit_iat.cluster_mean_iat.push_back(
        workload::interarrival_for_utilization(
            probe, calibrated.target_utilization, calib_rng));
  }
  const SimResult want = run_experiment(explicit_iat);
  workload::TraceCache::global().clear();
  expect_same_records(run_experiment(calibrated), want);  // misses
  expect_same_records(run_experiment(calibrated), want);  // hits
}

TEST(Windowed, ClusterCountSweepReusesTheCalibrationPrefix) {
  // Cluster i's calibration draws start where cluster i-1's end, so a
  // 4-cluster run on the seed of an 8-cluster run finds all 4 of its
  // calibrations memoized.
  const workload::TraceCache& cache = workload::TraceCache::global();
  run_experiment(calibrated_config(8, false));
  const std::uint64_t hits_before = cache.calibration_hits();
  const std::uint64_t misses_before = cache.calibration_misses();
  run_experiment(calibrated_config(4, false));
  EXPECT_EQ(cache.calibration_hits(), hits_before + 4);
  EXPECT_EQ(cache.calibration_misses(), misses_before);
}

TEST(Windowed, CalibratedRunWithTheCacheDisabledMatchesTheWarmRun) {
  // The cold run starts from a cleared cache, so it recomputes every
  // cluster's calibration.
  workload::TraceCache& cache = workload::TraceCache::global();
  const ExperimentConfig config = calibrated_config(4, false);
  run_experiment(config);
  const SimResult warm = run_experiment(config);
  cache.clear();
  const SimResult cold = run_experiment(config);
  EXPECT_EQ(cache.calibration_hits(), 0u);
  EXPECT_EQ(cache.calibration_misses(), config.n_clusters);
  expect_same_records(cold, warm);
}

TEST(Windowed, ResidentTraceStateIsBoundedByTheWindow) {
  ExperimentConfig config = streaming_config();
  config.submit_horizon = 2.0 * 3600.0;
  const SimResult eager = run_experiment(config);
  config.stream_window = 32;
  const SimResult windowed = run_experiment(config);
  // The eager run holds every generated spec resident; the windowed run
  // holds checkpoint tables plus one 32-job buffer per cluster.
  ASSERT_GT(eager.resident_trace_bytes, 0u);
  ASSERT_GT(windowed.resident_trace_bytes, 0u);
  EXPECT_EQ(eager.resident_trace_bytes,
            eager.jobs_generated * sizeof(workload::JobSpec));
  EXPECT_LT(windowed.resident_trace_bytes, eager.resident_trace_bytes / 4);
  // Both runs feed the same arrival pump and run the same schedule, so
  // the job-proportional live state (gateway, schedulers, pump) matches;
  // the input mode shows up in resident_trace_bytes only.
  EXPECT_GT(windowed.live_state_bytes, 0u);
  EXPECT_EQ(windowed.live_state_bytes, eager.live_state_bytes);
}

TEST(Windowed, PdesKernelMatchesEagerPdesBitIdentically) {
  ExperimentConfig config = figure_config_quick();
  config.n_clusters = 4;
  config.submit_horizon = 0.4 * 3600.0;
  config.scheme = RedundancyScheme::all();
  config.seed = 11;
  config.pdes = true;
  config.cross_cluster_latency = 60.0;
  config.pdes_jobs = 2;
  const SimResult eager = run_experiment(config);
  ASSERT_GT(eager.jobs_generated, 0u);
  ASSERT_GT(eager.pdes_windows, 0u);

  config.stream_window = 32;
  const SimResult windowed = run_experiment(config);
  EXPECT_EQ(windowed.jobs_generated, eager.jobs_generated);
  EXPECT_EQ(windowed.pdes_windows, eager.pdes_windows);
  EXPECT_EQ(windowed.duplicate_starts, eager.duplicate_starts);
  EXPECT_EQ(windowed.ops.starts, eager.ops.starts);
  EXPECT_EQ(windowed.ops.finishes, eager.ops.finishes);
  EXPECT_EQ(windowed.ops.cancels, eager.ops.cancels);
  ASSERT_EQ(windowed.records.size(), eager.records.size());
  for (std::size_t i = 0; i < eager.records.size(); ++i) {
    EXPECT_EQ(windowed.records[i].grid_id, eager.records[i].grid_id)
        << "record " << i;
    EXPECT_EQ(windowed.records[i].origin_cluster,
              eager.records[i].origin_cluster)
        << "record " << i;
    EXPECT_EQ(windowed.records[i].redundant, eager.records[i].redundant)
        << "record " << i;
    EXPECT_EQ(windowed.records[i].submit_time, eager.records[i].submit_time)
        << "record " << i;
    EXPECT_EQ(windowed.records[i].start_time, eager.records[i].start_time)
        << "record " << i;
    EXPECT_EQ(windowed.records[i].finish_time, eager.records[i].finish_time)
        << "record " << i;
    EXPECT_EQ(windowed.records[i].requested_time,
              eager.records[i].requested_time)
        << "record " << i;
  }
  // PDES retains records by contract, but the *input* side is windowed:
  // checkpoint tables + per-cluster buffers, not whole streams.
  EXPECT_LT(windowed.resident_trace_bytes, eager.resident_trace_bytes);
}

TEST(Windowed, RelativeCampaignMatchesEagerStreaming) {
  ExperimentConfig config = streaming_config();
  config.submit_horizon = 1200.0;
  const RelativeMetrics eager = run_relative_campaign(config, 3, 1);
  config.stream_window = 128;
  const RelativeMetrics windowed = run_relative_campaign(config, 3, 1);
  EXPECT_EQ(windowed.reps, eager.reps);
  EXPECT_EQ(windowed.rel_avg_stretch, eager.rel_avg_stretch);
  EXPECT_EQ(windowed.rel_cv_stretch, eager.rel_cv_stretch);
  EXPECT_EQ(windowed.rel_max_stretch, eager.rel_max_stretch);
  EXPECT_EQ(windowed.win_rate, eager.win_rate);
}

TEST(Windowed, SwfTraceReplayIsAcceptedAndStillChecksTheFile) {
  // trace_files + stream_window used to be rejected outright; the
  // WindowSpool lifted that (bit-identity to retained replay is pinned in
  // swf_spool_test.cpp). A missing trace file still fails loudly — as a
  // file error from the spool build, not a config rejection.
  ExperimentConfig config = streaming_config();
  config.stream_window = 64;
  config.trace_files = {"/nonexistent.swf"};
  EXPECT_THROW(run_experiment(config), std::runtime_error);
}

}  // namespace
}  // namespace rrsim::core

// ExperimentWorkspace reuse contract: running an experiment inside a
// workspace that already hosted other runs produces bit-identical results
// to a fresh workspace (and to the workspace-free run_experiment), the
// Platform/Gateway pair is reused only when the cluster shape and
// algorithm match, and state from one run (middleware, predictions,
// per-user limits) never leaks into the next.
#include "rrsim/core/experiment.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>

#include "rrsim/core/paper.h"
#include "rrsim/metrics/summary.h"

namespace rrsim::core {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig c = figure_config_quick();
  c.n_clusters = 3;
  c.submit_horizon = 0.2 * 3600.0;
  c.seed = 23;
  return c;
}

// Every comparison is exact: reuse must be invisible in the results.
void expect_identical(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].grid_id, b.records[i].grid_id);
    EXPECT_EQ(a.records[i].winner_cluster, b.records[i].winner_cluster);
    EXPECT_EQ(a.records[i].submit_time, b.records[i].submit_time);
    EXPECT_EQ(a.records[i].start_time, b.records[i].start_time);
    EXPECT_EQ(a.records[i].finish_time, b.records[i].finish_time);
    // Bit patterns, so two "no prediction" NaNs compare equal.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.records[i].predicted_start),
              std::bit_cast<std::uint64_t>(b.records[i].predicted_start));
  }
  EXPECT_EQ(a.ops.submits, b.ops.submits);
  EXPECT_EQ(a.ops.starts, b.ops.starts);
  EXPECT_EQ(a.ops.finishes, b.ops.finishes);
  EXPECT_EQ(a.ops.cancels, b.ops.cancels);
  EXPECT_EQ(a.ops.sched_passes, b.ops.sched_passes);
  EXPECT_EQ(a.gateway_cancels, b.gateway_cancels);
  EXPECT_EQ(a.replicas_rejected, b.replicas_rejected);
  EXPECT_EQ(a.replicas_dropped, b.replicas_dropped);
  EXPECT_EQ(a.jobs_generated, b.jobs_generated);
  EXPECT_EQ(a.avg_max_queue, b.avg_max_queue);
  EXPECT_EQ(a.end_time, b.end_time);
  const auto ma = metrics::compute_metrics(a.records);
  const auto mb = metrics::compute_metrics(b.records);
  EXPECT_EQ(ma.avg_stretch, mb.avg_stretch);
  EXPECT_EQ(ma.avg_turnaround, mb.avg_turnaround);
}

TEST(WorkspaceReuse, ReusedRunBitIdenticalToFreshRun) {
  ExperimentConfig c = tiny_config();
  c.scheme = RedundancyScheme::fixed(2);

  const SimResult reference = run_experiment(c);

  ExperimentWorkspace ws;
  const SimResult first = run_experiment(c, ws);
  EXPECT_EQ(ws.platform_reuses(), 0u);
  const SimResult second = run_experiment(c, ws);
  EXPECT_EQ(ws.platform_reuses(), 1u);  // same shape + algorithm: reused
  const SimResult third = run_experiment(c, ws);
  EXPECT_EQ(ws.platform_reuses(), 2u);

  expect_identical(first, reference);
  expect_identical(second, reference);
  expect_identical(third, reference);
}

TEST(WorkspaceReuse, SchemeAndSeedChangesReuseThePlatform) {
  // The shape add_relative produces: scheme run then NONE run, alternating
  // seeds — all on one 3-cluster EASY platform.
  ExperimentConfig with = tiny_config();
  with.scheme = RedundancyScheme::half();
  ExperimentConfig without = with;
  without.scheme = RedundancyScheme::none();

  ExperimentWorkspace ws;
  std::vector<SimResult> reused;
  for (int r = 0; r < 2; ++r) {
    ExperimentConfig cw = with;
    cw.seed = with.seed + static_cast<std::uint64_t>(r);
    ExperimentConfig co = without;
    co.seed = cw.seed;
    reused.push_back(run_experiment(cw, ws));
    reused.push_back(run_experiment(co, ws));
  }
  EXPECT_EQ(ws.platform_reuses(), 3u);

  std::size_t i = 0;
  for (int r = 0; r < 2; ++r) {
    ExperimentConfig cw = with;
    cw.seed = with.seed + static_cast<std::uint64_t>(r);
    ExperimentConfig co = without;
    co.seed = cw.seed;
    expect_identical(reused[i++], run_experiment(cw));
    expect_identical(reused[i++], run_experiment(co));
  }
}

TEST(WorkspaceReuse, ShapeOrAlgorithmChangeRebuilds) {
  ExperimentConfig easy3 = tiny_config();
  easy3.scheme = RedundancyScheme::fixed(2);
  ExperimentConfig easy2 = easy3;
  easy2.n_clusters = 2;
  ExperimentConfig cbf3 = easy3;
  cbf3.algorithm = sched::Algorithm::kCbf;

  ExperimentWorkspace ws;
  const SimResult a = run_experiment(easy3, ws);
  const SimResult b = run_experiment(easy2, ws);  // shape change: rebuild
  EXPECT_EQ(ws.platform_reuses(), 0u);
  const SimResult c = run_experiment(cbf3, ws);  // algorithm change
  EXPECT_EQ(ws.platform_reuses(), 0u);
  const SimResult d = run_experiment(easy3, ws);  // back again: rebuild
  EXPECT_EQ(ws.platform_reuses(), 0u);

  expect_identical(a, run_experiment(easy3));
  expect_identical(b, run_experiment(easy2));
  expect_identical(c, run_experiment(cbf3));
  expect_identical(d, a);
}

TEST(WorkspaceReuse, FeatureStateDoesNotLeakAcrossRuns) {
  // Middleware, per-user limits, and prediction recording each leave
  // state in the Gateway/schedulers; a following plain run must not see
  // any of it, and vice versa.
  ExperimentConfig plain = tiny_config();
  plain.scheme = RedundancyScheme::fixed(2);
  ExperimentConfig middleware = plain;
  middleware.middleware_ops_per_sec = 2.0;
  ExperimentConfig limited = plain;
  limited.per_user_pending_limit = 1;
  limited.users_per_cluster = 2;
  // Prediction recording needs CBF (the only scheduler that records
  // submit-time start predictions), so this pair also covers rebuilding
  // into and out of a prediction-recording gateway.
  ExperimentConfig predicting = plain;
  predicting.algorithm = sched::Algorithm::kCbf;
  predicting.record_predictions = true;

  ExperimentWorkspace ws;
  run_experiment(middleware, ws);
  const SimResult after_middleware = run_experiment(plain, ws);
  run_experiment(limited, ws);
  const SimResult after_limits = run_experiment(plain, ws);
  const SimResult predicted = run_experiment(predicting, ws);   // rebuild
  const SimResult after_predictions = run_experiment(plain, ws);  // rebuild
  EXPECT_EQ(ws.platform_reuses(), 3u);

  const SimResult reference = run_experiment(plain);
  expect_identical(after_middleware, reference);
  expect_identical(after_limits, reference);
  expect_identical(after_predictions, reference);
  expect_identical(predicted, run_experiment(predicting));
  ASSERT_FALSE(predicted.records.empty());
  ASSERT_FALSE(reference.records.empty());
  EXPECT_TRUE(predicted.records.front().has_prediction());
  EXPECT_FALSE(reference.records.front().has_prediction());
}

TEST(WorkspaceReuse, PdesRunLeavesTheWorkspacePlatformAlone) {
  // One workspace hosts both kernels in turn: classic, PDES, classic, then
  // classic streaming. The PDES run builds its own coordinator, platform
  // and gateway, so the classic run after it still reuses the workspace's
  // platform, and every run equals a fresh-workspace run.
  ExperimentConfig classic = tiny_config();
  classic.scheme = RedundancyScheme::fixed(2);
  ExperimentConfig pdes = classic;
  pdes.pdes = true;
  pdes.cross_cluster_latency = 60.0;
  pdes.pdes_jobs = 1;
  ExperimentConfig streaming = classic;
  streaming.retain_records = false;

  ExperimentWorkspace ws;
  const SimResult first = run_experiment(classic, ws);
  EXPECT_EQ(ws.platform_reuses(), 0u);
  const SimResult partitioned = run_experiment(pdes, ws);
  EXPECT_EQ(ws.platform_reuses(), 0u);
  const SimResult third = run_experiment(classic, ws);
  EXPECT_EQ(ws.platform_reuses(), 1u);  // the PDES run left it in place
  const SimResult streamed = run_experiment(streaming, ws);
  EXPECT_EQ(ws.platform_reuses(), 2u);

  const SimResult fresh_classic = run_experiment(classic);
  const SimResult fresh_pdes = run_experiment(pdes);
  const SimResult fresh_streamed = run_experiment(streaming);
  expect_identical(first, fresh_classic);
  expect_identical(third, fresh_classic);
  expect_identical(partitioned, fresh_pdes);
  expect_identical(streamed, fresh_streamed);
  for (const auto& [got, want] :
       {std::pair{&first, &fresh_classic}, std::pair{&third, &fresh_classic},
        std::pair{&partitioned, &fresh_pdes},
        std::pair{&streamed, &fresh_streamed}}) {
    EXPECT_EQ(got->events_dispatched, want->events_dispatched);
    EXPECT_EQ(got->duplicate_starts, want->duplicate_starts);
    EXPECT_EQ(got->pdes_windows, want->pdes_windows);
    EXPECT_EQ(got->queue_growth_per_hour, want->queue_growth_per_hour);
  }
  EXPECT_GT(partitioned.pdes_windows, 0u);
  ASSERT_TRUE(streamed.streamed);
  EXPECT_EQ(streamed.stream.jobs(), fresh_streamed.stream.jobs());
  EXPECT_EQ(streamed.stream.jobs(), first.records.size());
  EXPECT_EQ(streamed.stream.metrics().avg_stretch,
            fresh_streamed.stream.metrics().avg_stretch);
  EXPECT_EQ(streamed.stream.metrics().avg_stretch,
            metrics::compute_metrics(first.records).avg_stretch);
}

TEST(WorkspaceReuse, ThreadWorkspacePersistsPerThread) {
  ExperimentConfig c = tiny_config();
  c.scheme = RedundancyScheme::fixed(2);
  ExperimentWorkspace& ws = thread_workspace();
  EXPECT_EQ(&ws, &thread_workspace());  // one workspace per thread
  const std::uint64_t before = ws.platform_reuses();
  run_experiment(c, ws);
  run_experiment(c, ws);
  EXPECT_GT(ws.platform_reuses(), before);
}

}  // namespace
}  // namespace rrsim::core

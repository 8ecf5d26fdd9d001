// Streaming (retain_records = false) runs must reproduce the retained
// pipeline's results: same simulated schedule, same metrics, bit for bit —
// only the gateway's record sink differs — while keeping O(live jobs)
// memory.
#include "rrsim/core/experiment.h"

#include <gtest/gtest.h>

#include "rrsim/core/campaign.h"
#include "rrsim/metrics/summary.h"

namespace rrsim::core {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.n_clusters = 4;
  config.nodes_per_cluster = 32;
  config.submit_horizon = 1200.0;
  config.scheme = RedundancyScheme::all();
  config.redundant_fraction = 0.5;
  config.seed = 7;
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

TEST(Streaming, BitIdenticalScheduleAndMetrics) {
  ExperimentConfig config = small_config();
  const SimResult retained = run_experiment(config);
  config.retain_records = false;
  const SimResult streamed = run_experiment(config);

  // The simulated schedule itself must be unchanged, not just the
  // summary statistics.
  EXPECT_FALSE(retained.streamed);
  EXPECT_TRUE(streamed.streamed);
  EXPECT_EQ(streamed.jobs_generated, retained.jobs_generated);
  EXPECT_EQ(streamed.end_time, retained.end_time);
  EXPECT_EQ(streamed.ops.starts, retained.ops.starts);
  EXPECT_EQ(streamed.ops.finishes, retained.ops.finishes);
  EXPECT_EQ(streamed.gateway_cancels, retained.gateway_cancels);
  EXPECT_EQ(streamed.avg_max_queue, retained.avg_max_queue);

  EXPECT_TRUE(streamed.records.empty());
  EXPECT_EQ(streamed.stream.jobs(), retained.records.size());
  expect_same_metrics(streamed.stream.metrics(),
                      metrics::compute_metrics(retained.records));
  const metrics::ClassifiedMetrics batch =
      metrics::compute_classified_metrics(retained.records);
  const metrics::ClassifiedMetrics online = streamed.stream.classified();
  expect_same_metrics(online.all, batch.all);
  expect_same_metrics(online.redundant, batch.redundant);
  expect_same_metrics(online.non_redundant, batch.non_redundant);
}

TEST(Streaming, PredictionAccuracyMatchesBatch) {
  // Table 4's predictor: CBF reservations under conservative estimates.
  ExperimentConfig config = small_config();
  config.algorithm = sched::Algorithm::kCbf;
  config.estimator = "uniform216";
  config.record_predictions = true;
  const SimResult retained = run_experiment(config);
  config.retain_records = false;
  const SimResult streamed = run_experiment(config);
  for (auto cls : {std::optional<bool>{}, std::optional<bool>{true},
                   std::optional<bool>{false}}) {
    const metrics::PredictionAccuracy batch =
        metrics::compute_prediction_accuracy(retained.records, cls);
    const metrics::PredictionAccuracy online = streamed.stream.prediction(cls);
    EXPECT_GT(batch.jobs, 0u);
    EXPECT_EQ(online.jobs, batch.jobs);
    EXPECT_EQ(online.avg_ratio, batch.avg_ratio);
    EXPECT_EQ(online.cv_ratio_percent, batch.cv_ratio_percent);
  }
}

TEST(Streaming, WorkspaceAlternatesModesCleanly) {
  // Reusing one workspace across modes must not leak state either way.
  ExperimentConfig config = small_config();
  ExperimentWorkspace ws;
  const SimResult r1 = run_experiment(config, ws);
  config.retain_records = false;
  const SimResult s = run_experiment(config, ws);
  config.retain_records = true;
  const SimResult r2 = run_experiment(config, ws);
  EXPECT_EQ(r1.records.size(), r2.records.size());
  EXPECT_EQ(metrics::compute_metrics(r1.records).avg_stretch,
            metrics::compute_metrics(r2.records).avg_stretch);
  EXPECT_EQ(s.stream.metrics().avg_stretch,
            metrics::compute_metrics(r1.records).avg_stretch);
}

TEST(Streaming, LiveStateIsReportedAndSmallerThanRetained) {
  ExperimentConfig config = small_config();
  config.submit_horizon = 3600.0;
  const SimResult retained = run_experiment(config);
  config.retain_records = false;
  const SimResult streamed = run_experiment(config);
  ASSERT_GT(retained.live_state_bytes, 0u);
  // Both modes run one scheduler lifecycle, which drops a job's entries
  // when it ends, so they hold the same live state and do the same work.
  // What streaming saves is the retained run's records.
  EXPECT_EQ(streamed.live_state_bytes, retained.live_state_bytes);
  EXPECT_EQ(streamed.ops.submits, retained.ops.submits);
  EXPECT_EQ(streamed.ops.rejects, retained.ops.rejects);
  EXPECT_EQ(streamed.ops.cancels, retained.ops.cancels);
  EXPECT_EQ(streamed.ops.starts, retained.ops.starts);
  EXPECT_EQ(streamed.ops.finishes, retained.ops.finishes);
  EXPECT_EQ(streamed.ops.declines, retained.ops.declines);
  EXPECT_EQ(streamed.ops.sched_passes, retained.ops.sched_passes);
  EXPECT_EQ(streamed.events_dispatched, retained.events_dispatched);
  EXPECT_EQ(streamed.gateway_cancels, retained.gateway_cancels);
  EXPECT_TRUE(streamed.records.empty());
  EXPECT_GT(retained.records.size(), 0u);
}

TEST(Streaming, RelativeCampaignMatchesRetained) {
  ExperimentConfig config = small_config();
  const RelativeMetrics retained = run_relative_campaign(config, 3, 1);
  config.retain_records = false;
  const RelativeMetrics streamed = run_relative_campaign(config, 3, 1);
  EXPECT_EQ(streamed.reps, retained.reps);
  EXPECT_EQ(streamed.rel_avg_stretch, retained.rel_avg_stretch);
  EXPECT_EQ(streamed.rel_cv_stretch, retained.rel_cv_stretch);
  EXPECT_EQ(streamed.rel_max_stretch, retained.rel_max_stretch);
  EXPECT_EQ(streamed.win_rate, retained.win_rate);
}

TEST(Streaming, PredictionCampaignMatchesRetainedWithinRounding) {
  ExperimentConfig config = small_config();
  config.algorithm = sched::Algorithm::kCbf;  // the only predictor
  config.estimator = "uniform216";
  const PredictionCampaign retained = run_prediction_campaign(config, 3, 1);
  config.retain_records = false;
  const PredictionCampaign streamed = run_prediction_campaign(config, 3, 1);
  EXPECT_GT(retained.redundant.jobs, 0u);
  EXPECT_GT(retained.non_redundant.jobs, 0u);
  EXPECT_EQ(streamed.all.jobs, retained.all.jobs);
  EXPECT_EQ(streamed.redundant.jobs, retained.redundant.jobs);
  // Pooling across reps is a Welford merge in the streaming path vs. one
  // sequential pass over the concatenation in the retained path — equal
  // only to rounding.
  EXPECT_NEAR(streamed.all.avg_ratio, retained.all.avg_ratio,
              1e-9 * (retained.all.avg_ratio + 1.0));
  EXPECT_NEAR(streamed.all.cv_ratio_percent, retained.all.cv_ratio_percent,
              1e-9 * (retained.all.cv_ratio_percent + 1.0));
}

}  // namespace
}  // namespace rrsim::core

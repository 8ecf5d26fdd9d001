// Section 5 end-to-end: reservation-based queue-wait predictions are
// conservative, and redundancy inflates the over-prediction — more for
// jobs that do not use redundancy themselves.
#include <gtest/gtest.h>

#include "rrsim/core/campaign.h"
#include "rrsim/core/paper.h"

namespace rrsim::core {
namespace {

ExperimentConfig prediction_config() {
  // Table 4's regime: every cluster at the full peak rate, so queues are
  // deep and identically flooded. The window is kept short because CBF's
  // profile rebuilds are quadratic in queue depth.
  ExperimentConfig c;
  c.n_clusters = 10;
  c.load_mode = LoadMode::kPerClusterPeak;
  c.submit_horizon = 1200.0;
  c.algorithm = sched::Algorithm::kCbf;  // the paper's Section 5 predictor
  c.estimator = "uniform216";            // conservative requested times
  c.record_predictions = true;
  c.seed = 77;
  return c;
}

TEST(Predictability, BaselineOverestimatesWaits) {
  // Table 4 left column: with no redundancy, conservative requested
  // times make reservation-based predictions over-estimates (paper: 9.24
  // on average with a large CV).
  ExperimentConfig c = prediction_config();
  const PredictionCampaign res = run_prediction_campaign(c, 2);
  ASSERT_GT(res.all.jobs, 0u);
  EXPECT_GT(res.all.avg_ratio, 1.5);
  EXPECT_GT(res.all.cv_ratio_percent, 30.0);
}

TEST(Predictability, RedundancyInflatesOverpredictionForBothClasses) {
  // Table 4 right columns: with 40% of jobs using ALL, the average
  // over-estimation grows for both classes relative to the baseline (the
  // paper reports ~4x for redundant and ~8x for non-redundant jobs; our
  // regime reproduces the dramatic inflation though with the class
  // ordering reversed — see EXPERIMENTS.md).
  ExperimentConfig baseline = prediction_config();
  const PredictionCampaign base = run_prediction_campaign(baseline, 2);

  ExperimentConfig mixed = prediction_config();
  mixed.scheme = RedundancyScheme::all();
  mixed.redundant_fraction = 0.4;
  const PredictionCampaign with = run_prediction_campaign(mixed, 2);

  ASSERT_GT(with.non_redundant.jobs, 0u);
  ASSERT_GT(with.redundant.jobs, 0u);
  EXPECT_GT(with.non_redundant.avg_ratio, base.all.avg_ratio);
  EXPECT_GT(with.redundant.avg_ratio, base.all.avg_ratio);
}

TEST(Predictability, RedundancyShrinksQueueFloodedPredictionsViaMin) {
  // The structural facts behind Table 4: non-redundant jobs' predictions
  // are inflated by the replica-flooded queues, redundant jobs' min-over-
  // replica predictions are smaller than single-queue ones, and redundant
  // jobs' actual waits are far shorter.
  ExperimentConfig mixed = prediction_config();
  mixed.scheme = RedundancyScheme::all();
  mixed.redundant_fraction = 0.4;
  mixed.seed = 78;
  const SimResult r = run_experiment(mixed);
  double nr_pred = 0.0, nr_act = 0.0, r_pred = 0.0, r_act = 0.0;
  std::size_t nr_n = 0, r_n = 0;
  for (const auto& rec : r.records) {
    if (!rec.has_prediction()) continue;
    const double pred = std::max(0.0, rec.predicted_start - rec.submit_time);
    if (rec.redundant) {
      r_pred += pred;
      r_act += rec.wait_time();
      ++r_n;
    } else {
      nr_pred += pred;
      nr_act += rec.wait_time();
      ++nr_n;
    }
  }
  ASSERT_GT(nr_n, 0u);
  ASSERT_GT(r_n, 0u);
  EXPECT_LT(r_pred / static_cast<double>(r_n),
            nr_pred / static_cast<double>(nr_n));
  EXPECT_LT(r_act / static_cast<double>(r_n),
            nr_act / static_cast<double>(nr_n));
}

}  // namespace
}  // namespace rrsim::core

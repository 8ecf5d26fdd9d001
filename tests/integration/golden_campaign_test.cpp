// Golden bit-identity tests for the kernel hot-path overhaul.
//
// The event queue (pooled slab, compact heap entries, purged cancels),
// inline callbacks, and flat job tables are pure representation changes:
// every simulated trajectory must be bit-identical to the pre-overhaul
// kernel (binary-heap queue of full entries, std::function callbacks,
// std::map/unordered_map job tables). These tests pin fig1/table1-shaped
// campaign outputs to hex-float values captured from that baseline — any
// FP-visible deviation anywhere in the schedule → dispatch → metrics
// pipeline fails EXPECT_EQ on doubles.
//
// If one of these fails after an *intentional* semantic change, recapture
// the constants with a build of the old semantics and say so loudly in
// the commit; they are not tunable tolerances.
#include <gtest/gtest.h>

#include "rrsim/core/campaign.h"
#include "rrsim/core/paper.h"
#include "rrsim/core/scheme.h"

namespace {

using namespace rrsim;

struct Golden {
  double rel_avg_stretch;
  double rel_cv_stretch;
  double rel_max_stretch;
  double rel_avg_turnaround;
  double win_rate;
  double worst_rel_stretch;
};

void expect_bit_identical(const core::RelativeMetrics& m, const Golden& g) {
  EXPECT_EQ(m.rel_avg_stretch, g.rel_avg_stretch);
  EXPECT_EQ(m.rel_cv_stretch, g.rel_cv_stretch);
  EXPECT_EQ(m.rel_max_stretch, g.rel_max_stretch);
  EXPECT_EQ(m.rel_avg_turnaround, g.rel_avg_turnaround);
  EXPECT_EQ(m.win_rate, g.win_rate);
  EXPECT_EQ(m.worst_rel_stretch, g.worst_rel_stretch);
}

TEST(GoldenCampaign, Fig1ShapedFixedR2AtFourClusters) {
  core::ExperimentConfig c = core::figure_config_quick();
  c.n_clusters = 4;
  c.submit_horizon = 0.4 * 3600.0;
  c.seed = 42;
  c.scheme = core::RedundancyScheme::fixed(2);
  expect_bit_identical(core::run_relative_campaign(c, 4, 1),
                       Golden{0x1.51dc3209080dcp-1, 0x1.e052fb7791017p-1,
                              0x1.460da1c0bad8bp-1, 0x1.c84797d944544p-1,
                              0x1p+0, 0x1.8bc3c773cf5c8p-1});
}

TEST(GoldenCampaign, Fig1ShapedHalfAtSixClusters) {
  core::ExperimentConfig c = core::figure_config_quick();
  c.n_clusters = 6;
  c.submit_horizon = 0.4 * 3600.0;
  c.seed = 42;
  c.scheme = core::RedundancyScheme::half();
  expect_bit_identical(core::run_relative_campaign(c, 4, 1),
                       Golden{0x1.dfb341b21be14p-2, 0x1.fcd6decd2f148p-1,
                              0x1.a67ad16a54843p-2, 0x1.6c201c8c7911ap-1,
                              0x1p+0, 0x1.dcc7f00954871p-1});
}

class GoldenTable1 : public ::testing::Test {
 protected:
  static core::ExperimentConfig config(sched::Algorithm algo,
                                       const char* estimator) {
    core::ExperimentConfig c = core::figure_config_quick();
    c.n_clusters = 3;
    c.submit_horizon = 0.3 * 3600.0;
    c.seed = 7;
    c.scheme = core::RedundancyScheme::half();
    c.algorithm = algo;
    c.estimator = estimator;
    return c;
  }
  static core::RelativeMetrics run(sched::Algorithm algo,
                                   const char* estimator) {
    return core::run_relative_campaign(config(algo, estimator), 3, 1);
  }
};

TEST_F(GoldenTable1, EasyExactEstimates) {
  expect_bit_identical(run(sched::Algorithm::kEasy, "exact"),
                       Golden{0x1.2880684e632c8p-1, 0x1.4a26fdc8d52bp+0,
                              0x1.7f7cf21b81d4ap-1, 0x1.ad44b99f5ff2cp-1,
                              0x1p+0, 0x1.9770279bc5162p-1});
}

TEST_F(GoldenTable1, EasyUniformEstimates) {
  expect_bit_identical(run(sched::Algorithm::kEasy, "uniform216"),
                       Golden{0x1.363a62d87b7c6p-1, 0x1.18ea0e66c11f4p+0,
                              0x1.a064e53768aa6p-1, 0x1.a988f1059f57ap-1,
                              0x1p+0, 0x1.68c48e2dedc25p-1});
}

TEST_F(GoldenTable1, CbfExactEstimates) {
  expect_bit_identical(run(sched::Algorithm::kCbf, "exact"),
                       Golden{0x1.07f15353d12d2p-1, 0x1.0e59d28133843p+0,
                              0x1.33fd398c50f1cp-1, 0x1.b584bfa079e8dp-1,
                              0x1p+0, 0x1.8bc69f4b1efc5p-1});
}

TEST_F(GoldenTable1, CbfUniformEstimates) {
  expect_bit_identical(run(sched::Algorithm::kCbf, "uniform216"),
                       Golden{0x1.627c893e42043p-1, 0x1.b168b4fbebeb5p-1,
                              0x1.673fbb8b1dadcp-1, 0x1.c6e9b81168183p-1,
                              0x1.5555555555555p-1, 0x1.04b704270ba4ap+0});
}

TEST_F(GoldenTable1, FcfsExactEstimates) {
  expect_bit_identical(run(sched::Algorithm::kFcfs, "exact"),
                       Golden{0x1.ee18f669bdf02p-1, 0x1.d08278266660cp-1,
                              0x1.aa6feaae40643p-1, 0x1.f76a33204e5cbp-1,
                              0x1.5555555555555p-1, 0x1.1b61b720ec80fp+0});
}

// Table 4's shape (bench/table4_predictability at its defaults): CBF's
// submit-time reservations, the minimum over each job's replicas, folded
// into predicted/actual wait ratios. Pins every PredictionAccuracy field
// for all, r and n-r jobs, so any change to how schedulers report
// predictions or how the gateway keeps them shows here.
struct GoldenPrediction {
  std::size_t jobs;
  double avg_ratio;
  double cv_ratio_percent;
};

void expect_bit_identical(const metrics::PredictionAccuracy& a,
                          const GoldenPrediction& g) {
  EXPECT_EQ(a.jobs, g.jobs);
  EXPECT_EQ(a.avg_ratio, g.avg_ratio);
  EXPECT_EQ(a.cv_ratio_percent, g.cv_ratio_percent);
}

class GoldenTable4 : public ::testing::Test {
 protected:
  static core::PredictionCampaign run(bool forty_percent_all) {
    core::ExperimentConfig c;
    c.n_clusters = 10;
    c.load_mode = core::LoadMode::kPerClusterPeak;
    c.submit_horizon = 1200.0;
    c.algorithm = sched::Algorithm::kCbf;
    c.estimator = "uniform216";
    c.seed = 77;
    if (forty_percent_all) {
      c.scheme = core::RedundancyScheme::all();
      c.redundant_fraction = 0.4;
    }
    return core::run_prediction_campaign(c, 3, 1);
  }
};

TEST_F(GoldenTable4, Baseline) {
  const core::PredictionCampaign p = run(false);
  EXPECT_EQ(p.reps, 3u);
  expect_bit_identical(
      p.all, GoldenPrediction{4840, 0x1.45f055e05ed3bp+2,
                              0x1.c4a6e6e996584p+7});
  expect_bit_identical(p.redundant, GoldenPrediction{0, 0.0, 0.0});
  expect_bit_identical(
      p.non_redundant, GoldenPrediction{4840, 0x1.45f055e05ed3bp+2,
                                        0x1.c4a6e6e996584p+7});
}

TEST_F(GoldenTable4, FortyPercentAll) {
  const core::PredictionCampaign p = run(true);
  EXPECT_EQ(p.reps, 3u);
  expect_bit_identical(
      p.all, GoldenPrediction{4855, 0x1.4f6be29c71ca1p+3,
                              0x1.296656568cc54p+7});
  expect_bit_identical(
      p.redundant, GoldenPrediction{1500, 0x1.7d0d7677d2dbdp+3,
                                    0x1.e437345d453a2p+6});
  expect_bit_identical(
      p.non_redundant, GoldenPrediction{3355, 0x1.3b051f8d26b73p+3,
                                        0x1.45f3a3df384cbp+7});
}

TEST_F(GoldenTable1, FcfsIgnoresEstimatorQuality) {
  // FCFS never reads requested-time estimates, so the uniform216 point
  // must reproduce the exact-estimates point bit for bit.
  const core::RelativeMetrics exact = run(sched::Algorithm::kFcfs, "exact");
  const core::RelativeMetrics uniform =
      run(sched::Algorithm::kFcfs, "uniform216");
  EXPECT_EQ(exact.rel_avg_stretch, uniform.rel_avg_stretch);
  EXPECT_EQ(exact.rel_cv_stretch, uniform.rel_cv_stretch);
  EXPECT_EQ(exact.rel_max_stretch, uniform.rel_max_stretch);
  EXPECT_EQ(exact.rel_avg_turnaround, uniform.rel_avg_turnaround);
  EXPECT_EQ(exact.win_rate, uniform.win_rate);
  EXPECT_EQ(exact.worst_rel_stretch, uniform.worst_rel_stretch);
}

}  // namespace

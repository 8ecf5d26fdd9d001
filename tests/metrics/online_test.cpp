#include "rrsim/metrics/online.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "rrsim/metrics/summary.h"
#include "rrsim/util/rng.h"
#include "rrsim/util/stats.h"

namespace rrsim::metrics {
namespace {

JobRecord make_record(double submit, double start, double actual,
                      bool redundant = false) {
  JobRecord r;
  r.submit_time = submit;
  r.start_time = start;
  r.actual_time = actual;
  r.finish_time = start + actual;
  r.requested_time = actual;
  r.redundant = redundant;
  return r;
}

/// Random record population exercising both classes, sub-second runtimes
/// (the stretch clamp), and a predicted-start on roughly half the jobs.
std::vector<JobRecord> random_records(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<JobRecord> rs;
  rs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double submit = rng.uniform(0.0, 10000.0);
    const double wait = rng.chance(0.3) ? 0.0 : rng.uniform(0.0, 5000.0);
    const double actual = rng.chance(0.2) ? rng.uniform(0.01, 1.0)
                                          : rng.uniform(1.0, 3000.0);
    JobRecord r = make_record(submit, submit + wait, actual,
                              rng.chance(0.5));
    r.grid_id = static_cast<std::uint32_t>(i + 1);
    r.origin_cluster = static_cast<std::uint32_t>(i % 7);
    r.winner_cluster = static_cast<std::uint32_t>(i % 5);
    r.nodes = 1 + static_cast<int>(rng.below(64));
    r.replicas = static_cast<std::uint16_t>(1 + rng.below(4));
    r.replicas_delivered = r.replicas;
    if (rng.chance(0.5)) {
      r.predicted_start = submit + rng.uniform(0.0, 2.0 * wait + 1.0);
    }
    rs.push_back(r);
  }
  return rs;
}

// --- streaming vs batch oracle --------------------------------------------

// The accumulator's contract is *bit identity* with the batch pipeline
// when fed the records in vector order, so these comparisons use EXPECT_EQ
// on doubles, not a tolerance.
TEST(OnlineAccumulator, BitIdenticalToBatchOnRandomRecords) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const std::vector<JobRecord> rs = random_records(5000, seed);
    OnlineAccumulator acc;
    for (const JobRecord& r : rs) acc.add(r);

    const ScheduleMetrics batch = compute_metrics(rs);
    const ScheduleMetrics stream = acc.metrics();
    EXPECT_EQ(stream.jobs, batch.jobs);
    EXPECT_EQ(stream.avg_stretch, batch.avg_stretch);
    EXPECT_EQ(stream.cv_stretch_percent, batch.cv_stretch_percent);
    EXPECT_EQ(stream.max_stretch, batch.max_stretch);
    EXPECT_EQ(stream.avg_turnaround, batch.avg_turnaround);
    EXPECT_EQ(stream.avg_wait, batch.avg_wait);

    const ClassifiedMetrics cb = compute_classified_metrics(rs);
    const ClassifiedMetrics cs = acc.classified();
    const auto expect_same = [](const ScheduleMetrics& got,
                                const ScheduleMetrics& want) {
      EXPECT_EQ(got.jobs, want.jobs);
      EXPECT_EQ(got.avg_stretch, want.avg_stretch);
      EXPECT_EQ(got.cv_stretch_percent, want.cv_stretch_percent);
      EXPECT_EQ(got.max_stretch, want.max_stretch);
      EXPECT_EQ(got.avg_turnaround, want.avg_turnaround);
      EXPECT_EQ(got.avg_wait, want.avg_wait);
    };
    expect_same(cs.all, cb.all);
    expect_same(cs.redundant, cb.redundant);
    expect_same(cs.non_redundant, cb.non_redundant);

    for (auto cls : {std::optional<bool>{}, std::optional<bool>{true},
                     std::optional<bool>{false}}) {
      const PredictionAccuracy pb = compute_prediction_accuracy(rs, cls);
      const PredictionAccuracy ps = acc.prediction(cls);
      EXPECT_EQ(ps.jobs, pb.jobs);
      EXPECT_EQ(ps.avg_ratio, pb.avg_ratio);
      EXPECT_EQ(ps.cv_ratio_percent, pb.cv_ratio_percent);
    }
  }
}

TEST(OnlineAccumulator, EmptyMatchesBatchEmpty) {
  const OnlineAccumulator acc;
  const ScheduleMetrics batch = compute_metrics({});
  EXPECT_EQ(acc.jobs(), 0u);
  EXPECT_EQ(acc.metrics().jobs, batch.jobs);
  EXPECT_EQ(acc.metrics().avg_stretch, batch.avg_stretch);
  EXPECT_EQ(acc.prediction().jobs, 0u);
}

TEST(OnlineAccumulator, ResetRestoresFreshState) {
  OnlineAccumulator acc;
  for (const JobRecord& r : random_records(100, 9)) acc.add(r);
  acc.reset();
  EXPECT_EQ(acc.jobs(), 0u);
  EXPECT_EQ(acc.metrics().avg_stretch, 0.0);
  // After reset the accumulator must again match batch exactly.
  const std::vector<JobRecord> rs = random_records(500, 10);
  for (const JobRecord& r : rs) acc.add(r);
  EXPECT_EQ(acc.metrics().avg_stretch, compute_metrics(rs).avg_stretch);
}

// --- P2 quantile sketch ----------------------------------------------------

TEST(P2Quantile, ExactForFewerThanFiveObservations) {
  P2Quantile q(0.5);
  EXPECT_EQ(q.value(), 0.0);
  q.add(3.0);
  EXPECT_EQ(q.value(), 3.0);
  q.add(1.0);
  EXPECT_EQ(q.value(), 2.0);  // median of {1, 3}
  q.add(2.0);
  EXPECT_EQ(q.value(), 2.0);  // median of {1, 2, 3}
}

/// Randomized error bound: the P^2 estimate's *rank* in the sample must be
/// close to the target quantile. Rank error is the right yardstick — it is
/// distribution-free, while value error blows up wherever the density is
/// thin (e.g. the far tail of the stretch distribution).
TEST(P2Quantile, RandomizedRankErrorBound) {
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL}) {
    util::Rng rng(seed);
    std::vector<double> sample;
    const std::size_t n = 20000;
    sample.reserve(n);
    P2Quantile p50(0.50);
    P2Quantile p90(0.90);
    P2Quantile p99(0.99);
    for (std::size_t i = 0; i < n; ++i) {
      // Heavy-ish tail, like stretch: exp of a uniform spread.
      const double x = std::exp(rng.uniform(0.0, 5.0));
      sample.push_back(x);
      p50.add(x);
      p90.add(x);
      p99.add(x);
    }
    std::sort(sample.begin(), sample.end());
    const auto rank_of = [&](double v) {
      const auto it = std::lower_bound(sample.begin(), sample.end(), v);
      return static_cast<double>(it - sample.begin()) /
             static_cast<double>(n);
    };
    EXPECT_NEAR(rank_of(p50.value()), 0.50, 0.02) << "seed " << seed;
    EXPECT_NEAR(rank_of(p90.value()), 0.90, 0.02) << "seed " << seed;
    EXPECT_NEAR(rank_of(p99.value()), 0.99, 0.01) << "seed " << seed;
  }
}

TEST(OnlineAccumulator, SketchQuantilesOrderedAndNearExact) {
  const std::vector<JobRecord> rs = random_records(10000, 42);
  OnlineAccumulator acc;
  std::vector<double> stretches;
  stretches.reserve(rs.size());
  for (const JobRecord& r : rs) {
    acc.add(r);
    stretches.push_back(stretch_of(r));
  }
  std::sort(stretches.begin(), stretches.end());
  const auto exact = [&](double q) {
    return stretches[static_cast<std::size_t>(
        q * static_cast<double>(stretches.size() - 1))];
  };
  EXPECT_LE(acc.stretch_p50(), acc.stretch_p90());
  EXPECT_LE(acc.stretch_p90(), acc.stretch_p99());
  EXPECT_NEAR(acc.stretch_p50(), exact(0.50), 0.05 * exact(0.50));
  EXPECT_NEAR(acc.stretch_p90(), exact(0.90), 0.10 * exact(0.90));
}

}  // namespace
}  // namespace rrsim::metrics

// End-to-end equivalence suite for the PDES run path: identical configs
// must yield bit-identical per-job records for any worker count, the
// latency-0 / single-cluster degenerate cases must land on the classic
// kernel, and the unsupported-feature combinations must be rejected
// loudly rather than silently degrading.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "rrsim/core/experiment.h"
#include "rrsim/core/paper.h"

namespace rrsim::core {
namespace {

ExperimentConfig pdes_config(double latency_s, int jobs) {
  ExperimentConfig c = figure_config_quick();
  c.n_clusters = 4;
  c.submit_horizon = 0.4 * 3600.0;
  c.scheme = RedundancyScheme::all();
  c.seed = 11;
  c.pdes = true;
  c.cross_cluster_latency = latency_s;
  c.pdes_jobs = jobs;
  return c;
}

void expect_same_records(const metrics::JobRecords& a,
                         const metrics::JobRecords& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].grid_id, b[i].grid_id) << "record " << i;
    EXPECT_EQ(a[i].origin_cluster, b[i].origin_cluster) << "record " << i;
    EXPECT_EQ(a[i].winner_cluster, b[i].winner_cluster) << "record " << i;
    EXPECT_EQ(a[i].redundant, b[i].redundant) << "record " << i;
    EXPECT_EQ(a[i].replicas, b[i].replicas) << "record " << i;
    EXPECT_EQ(a[i].replicas_delivered, b[i].replicas_delivered)
        << "record " << i;
    EXPECT_EQ(a[i].nodes, b[i].nodes) << "record " << i;
    // Exact binary equality, not tolerance: PDES is the same arithmetic
    // in a different execution order only between jobs, never within one.
    EXPECT_EQ(a[i].submit_time, b[i].submit_time) << "record " << i;
    EXPECT_EQ(a[i].start_time, b[i].start_time) << "record " << i;
    EXPECT_EQ(a[i].finish_time, b[i].finish_time) << "record " << i;
    EXPECT_EQ(a[i].actual_time, b[i].actual_time) << "record " << i;
    EXPECT_EQ(a[i].requested_time, b[i].requested_time) << "record " << i;
  }
}

TEST(PdesEquivalence, RecordsBitIdenticalAcrossWorkerCounts) {
  for (const double latency : {1.0, 60.0}) {
    const SimResult ref = run_experiment(pdes_config(latency, 1));
    ASSERT_GT(ref.jobs_generated, 0u);
    ASSERT_GT(ref.pdes_windows, 0u);
    for (const int jobs : {2, 8}) {
      const SimResult got = run_experiment(pdes_config(latency, jobs));
      SCOPED_TRACE("latency=" + std::to_string(latency) +
                   " jobs=" + std::to_string(jobs));
      expect_same_records(ref.records, got.records);
      EXPECT_EQ(got.jobs_generated, ref.jobs_generated);
      EXPECT_EQ(got.pdes_windows, ref.pdes_windows);
      EXPECT_EQ(got.duplicate_starts, ref.duplicate_starts);
      EXPECT_EQ(got.duplicate_finishes, ref.duplicate_finishes);
      EXPECT_EQ(got.ops.starts, ref.ops.starts);
      EXPECT_EQ(got.ops.finishes, ref.ops.finishes);
      EXPECT_EQ(got.ops.cancels, ref.ops.cancels);
      EXPECT_EQ(got.ops.sched_passes, ref.ops.sched_passes);
    }
  }
}

TEST(PdesEquivalence, Table1StyleCellsBitIdenticalAcrossWorkerCounts) {
  // Table 1 varies scheduler x estimate model; the determinism guarantee
  // must hold for every cell, not just the fig1 defaults.
  for (const sched::Algorithm algo :
       {sched::Algorithm::kFcfs, sched::Algorithm::kCbf}) {
    ExperimentConfig c = pdes_config(60.0, 1);
    c.algorithm = algo;
    c.estimator = "phi";
    const SimResult ref = run_experiment(c);
    ASSERT_GT(ref.jobs_generated, 0u);
    c.pdes_jobs = 8;
    const SimResult got = run_experiment(c);
    SCOPED_TRACE("algo=" + std::to_string(static_cast<int>(algo)));
    expect_same_records(ref.records, got.records);
    EXPECT_EQ(got.pdes_windows, ref.pdes_windows);
  }
}

TEST(PdesEquivalence, ZeroLatencyTakesTheClassicKernel) {
  // pdes = true with latency 0 is the degenerate single-partition case:
  // it runs the sequential kernel and must reproduce it exactly.
  ExperimentConfig classic = pdes_config(0.0, 1);
  classic.pdes = false;
  classic.pdes_jobs = 0;
  const SimResult a = run_experiment(classic);

  ExperimentConfig degenerate = pdes_config(0.0, 8);
  const SimResult b = run_experiment(degenerate);
  expect_same_records(a.records, b.records);
  EXPECT_EQ(b.pdes_windows, 0u);  // never entered the windowed protocol
  EXPECT_EQ(b.duplicate_starts, 0u);
}

TEST(PdesEquivalence, SingleClusterFallsBackToClassic) {
  // One cluster has no cross-cluster edges: latency is irrelevant and
  // the classic kernel serves the run.
  ExperimentConfig one = pdes_config(60.0, 4);
  one.n_clusters = 1;
  one.scheme = RedundancyScheme::none();
  const SimResult a = run_experiment(one);
  EXPECT_EQ(a.pdes_windows, 0u);

  ExperimentConfig plain = one;
  plain.pdes = false;
  plain.cross_cluster_latency = 0.0;
  plain.pdes_jobs = 0;
  const SimResult b = run_experiment(plain);
  expect_same_records(a.records, b.records);
}

TEST(PdesEquivalence, LatencyMakesRedundancyMoreHarmful) {
  // The new measurable effect: with redundant requests everywhere, a
  // larger cross-cluster latency means more duplicate starts (cancels
  // arrive too late), burning capacity the zero-latency model never saw.
  const SimResult lo = run_experiment(pdes_config(1.0, 2));
  const SimResult hi = run_experiment(pdes_config(60.0, 2));
  EXPECT_GT(hi.duplicate_starts, 0u);
  EXPECT_GE(hi.duplicate_starts, lo.duplicate_starts);
}

TEST(PdesEquivalence, TruncateProtocolSupported) {
  ExperimentConfig c = pdes_config(1.0, 2);
  c.drain = false;
  c.truncate_factor = 1.0;
  const SimResult r = run_experiment(c);
  EXPECT_LE(r.records.size(), r.jobs_generated);
  for (const auto& rec : r.records) {
    EXPECT_LE(rec.finish_time, c.submit_horizon + 1e-9);
  }
}

TEST(PdesEquivalence, RejectsUnsupportedCombinations) {
  // Latency flag sanity is checked before any dispatch.
  ExperimentConfig c = pdes_config(1.0, 1);
  c.pdes = false;  // latency > 0 without --pdes
  EXPECT_THROW(run_experiment(c), std::invalid_argument);

  c = pdes_config(-1.0, 1);
  EXPECT_THROW(run_experiment(c), std::invalid_argument);

  // Features that assume the zero-delay single-gateway kernel.
  c = pdes_config(1.0, 1);
  c.middleware_ops_per_sec = 1000.0;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);

  c = pdes_config(1.0, 1);
  c.algorithm = sched::Algorithm::kCbf;  // predictions need CBF anyway
  c.record_predictions = true;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);

  c = pdes_config(1.0, 1);
  c.retain_records = false;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);

  c = pdes_config(1.0, 1);
  c.placement = "least-loaded";
  EXPECT_THROW(run_experiment(c), std::invalid_argument);

  c = pdes_config(1.0, 1);
  c.drain = false;
  c.truncate_factor = 0.0;
  EXPECT_THROW(run_experiment(c), std::invalid_argument);
}

}  // namespace
}  // namespace rrsim::core

// Deterministic work counts: events dispatched, every scheduler operation
// counter and the gateway's cancellations, pinned exactly for a few
// representative runs. Wall-clock gates are noisy; these counts are not,
// so an algorithmic change that makes a run do more (or less) work fails
// here before any timing could show it. A change that alters them on
// purpose re-pins the values below and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "rrsim/core/experiment.h"
#include "rrsim/core/paper.h"

namespace rrsim::core {
namespace {

struct WorkCounts {
  std::uint64_t events_dispatched;
  sched::OpCounters ops;
  std::uint64_t gateway_cancels;
};

void expect_counts(const SimResult& r, const WorkCounts& want) {
  EXPECT_EQ(r.events_dispatched, want.events_dispatched);
  EXPECT_EQ(r.ops.submits, want.ops.submits);
  EXPECT_EQ(r.ops.rejects, want.ops.rejects);
  EXPECT_EQ(r.ops.cancels, want.ops.cancels);
  EXPECT_EQ(r.ops.starts, want.ops.starts);
  EXPECT_EQ(r.ops.finishes, want.ops.finishes);
  EXPECT_EQ(r.ops.declines, want.ops.declines);
  EXPECT_EQ(r.ops.sched_passes, want.ops.sched_passes);
  EXPECT_EQ(r.gateway_cancels, want.gateway_cancels);
}

ExperimentConfig fig1_quick_all(std::size_t clusters) {
  ExperimentConfig c = figure_config_quick();
  c.n_clusters = clusters;
  c.scheme = RedundancyScheme::all();
  return c;
}

ExperimentConfig four_clusters_r2() {
  ExperimentConfig c = figure_config_quick();
  c.n_clusters = 4;
  c.scheme = RedundancyScheme::fixed(2);
  return c;
}

TEST(WorkCounts, Fig1QuickAllOnTwoClusters) {
  const SimResult r = run_experiment(fig1_quick_all(2));
  EXPECT_EQ(r.jobs_generated, 4677u);
  expect_counts(r, {14151, {9354, 0, 4612, 4677, 4677, 65, 18643}, 4677});
}

TEST(WorkCounts, Fig1QuickAllOnTenClusters) {
  const SimResult r = run_experiment(fig1_quick_all(10));
  EXPECT_EQ(r.jobs_generated, 4675u);
  expect_counts(r,
                {51545, {46750, 0, 36678, 4675, 4675, 5397, 88103}, 42075});
}

TEST(WorkCounts, StreamingWindowedRun) {
  ExperimentConfig c = four_clusters_r2();
  c.retain_records = false;
  c.stream_window = 64;
  const SimResult r = run_experiment(c);
  EXPECT_EQ(r.jobs_generated, 4681u);
  expect_counts(r, {14163, {9362, 0, 4433, 4681, 4681, 248, 18476}, 4681});
}

TEST(WorkCounts, PdesRunIsTheSameWorkOnAnyWorkerCount) {
  // Every partition's dispatched events are summed: the count covers the
  // coordinator's delivered messages too, and does not depend on how the
  // windows were spread over workers.
  for (const int jobs : {1, 2}) {
    SCOPED_TRACE("pdes_jobs=" + std::to_string(jobs));
    ExperimentConfig c = four_clusters_r2();
    c.pdes = true;
    c.cross_cluster_latency = 60.0;
    c.pdes_jobs = jobs;
    const SimResult r = run_experiment(c);
    EXPECT_EQ(r.jobs_generated, 4681u);
    EXPECT_EQ(r.pdes_windows, 485u);
    EXPECT_EQ(r.duplicate_starts, 447u);
    expect_counts(r, {24539, {9362, 0, 4234, 5128, 5128, 0, 18724}, 4234});
  }
}

TEST(WorkCounts, CbfRunPinsItsWakeUpTraffic) {
  // CBF cancels and reschedules its wake-up event on every scheduling
  // pass: about half of the events a CBF workload schedules. On this
  // shape every wake-up is cancelled before it fires:
  // the run dispatches exactly as many events as the EASY run of
  // StreamingWindowedRun.
  ExperimentConfig c = four_clusters_r2();
  c.algorithm = sched::Algorithm::kCbf;
  const SimResult r = run_experiment(c);
  EXPECT_EQ(r.jobs_generated, 4681u);
  expect_counts(r, {14163, {9362, 0, 4444, 4681, 4681, 237, 23168}, 4681});
}

TEST(WorkCounts, RejectsAreSummedOverClusters) {
  // A per-user pending limit refuses replicas; the platform total must
  // carry the schedulers' rejects like every other counter.
  ExperimentConfig c = figure_config_quick();
  c.n_clusters = 4;
  c.scheme = RedundancyScheme::fixed(4);
  c.per_user_pending_limit = 2;
  const SimResult r = run_experiment(c);
  EXPECT_EQ(r.jobs_generated, 4681u);
  EXPECT_GT(r.replicas_rejected, 0u);
  EXPECT_EQ(r.ops.rejects, r.replicas_rejected);
  expect_counts(r,
                {12560, {7471, 11253, 2046, 4681, 4681, 744, 14198}, 2790});
}

// Toy versions of two benchmark workloads (perfbench/src/workloads.cpp),
// so their simulated work is gated without timing: 128-node clusters at
// a calibrated 0.7 load, half the jobs sending four requests.
ExperimentConfig benchmark_shape(std::size_t clusters, double hours) {
  ExperimentConfig c;
  c.n_clusters = clusters;
  c.nodes_per_cluster = 128;
  c.load_mode = LoadMode::kCalibrated;
  c.target_utilization = 0.7;
  c.submit_horizon = hours * 3600.0;
  c.scheme = RedundancyScheme::fixed(4);
  c.redundant_fraction = 0.5;
  return c;
}

TEST(WorkCounts, GridWindowedToyShape) {
  ExperimentConfig c = benchmark_shape(16, 1.0);
  c.retain_records = false;
  c.stream_window = 256;
  const SimResult r = run_experiment(c);
  EXPECT_EQ(r.jobs_generated, 1615u);
  EXPECT_EQ(r.duplicate_starts, 0u);
  expect_counts(r, {5744, {4069, 0, 651, 1615, 1615, 1803, 6335}, 2454});
}

TEST(WorkCounts, PdesLatencyToyShapeOnOneAndTwoWorkers) {
  for (const int jobs : {1, 2}) {
    SCOPED_TRACE("pdes_jobs=" + std::to_string(jobs));
    ExperimentConfig c = benchmark_shape(8, 5.0);
    c.pdes = true;
    c.cross_cluster_latency = 60.0;
    c.pdes_jobs = jobs;
    const SimResult r = run_experiment(c);
    EXPECT_EQ(r.jobs_generated, 4033u);
    EXPECT_EQ(r.pdes_windows, 349u);
    EXPECT_EQ(r.duplicate_starts, 3902u);
    expect_counts(r,
                  {36132, {10237, 0, 2302, 7935, 7935, 0, 20474}, 2302});
  }
}

}  // namespace
}  // namespace rrsim::core

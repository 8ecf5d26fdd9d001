// The sweep engine's determinism contract: a CampaignSweep with many
// queued points produces, for every point, exactly the result the
// equivalent back-to-back run_*_campaign calls produce — bit-identical
// for any worker count, unperturbed by what else shares the pool, with
// completion callbacks firing in add() order. The golden blocks pin a
// figure-shaped and a table-shaped sweep to the hex-exact values captured
// before the sweep engine existed (the same goldens as
// campaign_determinism_test.cpp), so "ported the benches onto the sweep
// driver" is provably a no-op on the science.
#include "rrsim/core/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "rrsim/core/paper.h"
#include "rrsim/exec/sweep_runner.h"
#include "rrsim/workload/trace_cache.h"

namespace rrsim::core {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig c = figure_config_quick();
  c.n_clusters = 3;
  c.submit_horizon = 0.3 * 3600.0;
  c.seed = 17;
  return c;
}

void expect_identical(const RelativeMetrics& a, const RelativeMetrics& b) {
  EXPECT_EQ(a.reps, b.reps);
  EXPECT_EQ(a.rel_avg_stretch, b.rel_avg_stretch);
  EXPECT_EQ(a.rel_cv_stretch, b.rel_cv_stretch);
  EXPECT_EQ(a.rel_max_stretch, b.rel_max_stretch);
  EXPECT_EQ(a.rel_avg_turnaround, b.rel_avg_turnaround);
  EXPECT_EQ(a.win_rate, b.win_rate);
  EXPECT_EQ(a.worst_rel_stretch, b.worst_rel_stretch);
  EXPECT_EQ(a.per_rep_rel_stretch, b.per_rep_rel_stretch);
}

// Relative points of tiny_config() at each (N, scheme) pair.
std::vector<ExperimentConfig> relative_points(
    const std::vector<std::size_t>& cluster_counts,
    const std::vector<RedundancyScheme>& schemes) {
  std::vector<ExperimentConfig> points;
  for (const std::size_t n : cluster_counts) {
    for (const RedundancyScheme& scheme : schemes) {
      ExperimentConfig c = tiny_config();
      c.n_clusters = n;
      c.scheme = scheme;
      points.push_back(c);
    }
  }
  return points;
}

// A figure-shaped sweep: several schemes of one config queued together.
std::vector<ExperimentConfig> figure_points() {
  return relative_points({3}, {RedundancyScheme::fixed(2),
                               RedundancyScheme::half(),
                               RedundancyScheme::all()});
}

// Figure 1's shape at N in {2, 3}: at N = 2, R2, R3, R4 and ALL are one
// effective scheme and HALF is the NONE baseline itself; at N = 3, R2 and
// HALF are one, as are R3, R4 and ALL. Five distinct runs per
// replication serve the ten points' twenty.
std::vector<ExperimentConfig> fig1_points() {
  return relative_points(
      {2, 3}, {RedundancyScheme::fixed(2), RedundancyScheme::fixed(3),
               RedundancyScheme::fixed(4), RedundancyScheme::half(),
               RedundancyScheme::all()});
}

// Queues every point; run() then fills results[i] with point i's metrics.
void queue_relative(CampaignSweep& sweep,
                    const std::vector<ExperimentConfig>& points,
                    std::vector<RelativeMetrics>& results) {
  results.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    sweep.add_relative(points[i], [&results, i](const RelativeMetrics& m) {
      results[i] = m;
    });
  }
}

std::vector<RelativeMetrics> run_figure_sweep(int jobs) {
  CampaignSweep sweep(6, jobs);
  std::vector<RelativeMetrics> results;
  queue_relative(sweep, figure_points(), results);
  sweep.run();
  return results;
}

TEST(SweepDeterminism, FigureSweepIdenticalAcrossJobCounts) {
  const auto serial = run_figure_sweep(1);
  for (int jobs : {2, 8}) {
    const auto parallel = run_figure_sweep(jobs);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_identical(serial[i], parallel[i]);
    }
  }
}

TEST(SweepDeterminism, SweepPointsMatchBackToBackCampaigns) {
  // Sharing the pool, the workspace, the trace cache and — between
  // relative points — whole runs with other points must be invisible:
  // each point equals its standalone campaign. Every distinct effective
  // run executes once per replication, for any worker count.
  struct Shape {
    std::vector<ExperimentConfig> points;
    int reps;
    std::uint64_t runs_per_rep;
  };
  // The three-scheme figure: R2 = HALF at N = 3, and one NONE baseline.
  const std::vector<Shape> shapes = {{figure_points(), 6, 3},
                                     {fig1_points(), 3, 5}};
  for (const Shape& shape : shapes) {
    const auto reps = static_cast<std::uint64_t>(shape.reps);
    for (const int jobs : {1, 3}) {
      SCOPED_TRACE(std::to_string(shape.points.size()) + " points, jobs=" +
                   std::to_string(jobs));
      CampaignSweep sweep(shape.reps, jobs);
      std::vector<RelativeMetrics> swept;
      queue_relative(sweep, shape.points, swept);
      sweep.run();
      EXPECT_EQ(sweep.last_run_stats().requested,
                2 * shape.points.size() * reps);
      EXPECT_EQ(sweep.last_run_stats().executed, shape.runs_per_rep * reps);
      for (std::size_t i = 0; i < shape.points.size(); ++i) {
        SCOPED_TRACE("N = " + std::to_string(shape.points[i].n_clusters) +
                     " " + shape.points[i].scheme.name());
        expect_identical(swept[i],
                         run_relative_campaign(shape.points[i], shape.reps, 1));
      }
    }
  }
}

TEST(SweepDeterminism, FailedRunLeavesNoSharedRunToTheNextBatch) {
  // The failed batch queued the figure points' three runs (R2 = HALF, ALL
  // and NONE at N = 3); the next batch asks for the same runs and must
  // execute them afresh, not read the discarded batch's unfilled slots.
  CampaignSweep sweep(2, 2);
  ExperimentConfig bad = tiny_config();
  bad.scheme = RedundancyScheme::fixed(2);
  bad.placement = "no-such-placement";
  const std::vector<ExperimentConfig> points = figure_points();
  std::vector<RelativeMetrics> discarded;
  queue_relative(sweep, points, discarded);
  sweep.add_relative(bad, [](const RelativeMetrics&) {
    ADD_FAILURE() << "a failed batch fired its callback";
  });
  EXPECT_THROW(sweep.run(), std::invalid_argument);

  std::vector<RelativeMetrics> swept;
  queue_relative(sweep, points, swept);
  sweep.run();
  EXPECT_EQ(sweep.last_run_stats().executed, 3u * 2u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(swept[i], run_relative_campaign(points[i], 2, 1));
  }
}

// Golden values captured from the pre-sweep-engine build (PR 1 / the
// incremental-scheduler PR) — the same constants pinned in
// campaign_determinism_test.cpp. Here the golden point runs *inside a
// multi-point sweep*, proving the sweep engine (flat pool + workspace
// reuse + trace cache) changes no mantissa bit of any point.
TEST(SweepDeterminism, FigureShapedSweepMatchesPreSweepGoldens) {
  RelativeMetrics r2;
  ClassifiedCampaign classified;
  CampaignSweep sweep(6);
  {
    ExperimentConfig c = tiny_config();
    c.scheme = RedundancyScheme::fixed(2);
    sweep.add_relative(c, [&r2](const RelativeMetrics& m) { r2 = m; });
  }
  {
    ExperimentConfig c = tiny_config();
    c.algorithm = sched::Algorithm::kFcfs;
    c.scheme = RedundancyScheme::all();
    c.redundant_fraction = 0.5;
    sweep.add_classified(
        c, [&classified](const ClassifiedCampaign& m) { classified = m; });
  }
  sweep.run();

  EXPECT_EQ(r2.reps, 6u);
  EXPECT_EQ(r2.rel_avg_stretch, 0x1.54ffd4d8c6d1bp-1);
  EXPECT_EQ(r2.rel_cv_stretch, 0x1.1de5af55aefd3p+0);
  EXPECT_EQ(r2.rel_max_stretch, 0x1.5d26b2f1be5c5p-1);
  EXPECT_EQ(r2.rel_avg_turnaround, 0x1.99c4f4e240079p-1);
  EXPECT_EQ(r2.win_rate, 0x1.5555555555555p-1);
  EXPECT_EQ(r2.worst_rel_stretch, 0x1.1d7c490632cd3p+0);

  EXPECT_EQ(classified.reps, 6u);
  EXPECT_EQ(classified.redundant_jobs, 2005u);
  EXPECT_EQ(classified.non_redundant_jobs, 2118u);
  EXPECT_EQ(classified.avg_stretch_all, 0x1.35e5560a129fap+8);
  EXPECT_EQ(classified.avg_stretch_redundant, 0x1.164aef99bc07dp+8);
  EXPECT_EQ(classified.avg_stretch_non_redundant, 0x1.532fb92d3e033p+8);
}

TEST(SweepDeterminism, TableShapedSweepMatchesPreSweepGoldens) {
  // Table-shaped: a CBF relative point and a CBF prediction point side by
  // side (the shape of table1/table4), at reps=4.
  RelativeMetrics r3;
  PredictionCampaign prediction;
  CampaignSweep sweep(4);
  {
    ExperimentConfig c = tiny_config();
    c.algorithm = sched::Algorithm::kCbf;
    c.scheme = RedundancyScheme::fixed(3);
    sweep.add_relative(c, [&r3](const RelativeMetrics& m) { r3 = m; });
  }
  {
    ExperimentConfig c = tiny_config();
    c.algorithm = sched::Algorithm::kCbf;
    c.estimator = "uniform216";
    c.scheme = RedundancyScheme::all();
    c.redundant_fraction = 0.4;
    sweep.add_prediction(
        c, [&prediction](const PredictionCampaign& m) { prediction = m; });
  }
  sweep.run();

  EXPECT_EQ(r3.reps, 4u);
  EXPECT_EQ(r3.rel_avg_stretch, 0x1.35e597336ace3p-1);
  EXPECT_EQ(r3.rel_cv_stretch, 0x1.dc2164b67bee1p-1);
  EXPECT_EQ(r3.rel_max_stretch, 0x1.22e50f4868ea1p-1);
  EXPECT_EQ(r3.rel_avg_turnaround, 0x1.b5e1e23ddc70fp-1);
  EXPECT_EQ(r3.win_rate, 0x1p+0);
  EXPECT_EQ(r3.worst_rel_stretch, 0x1.9b959cab86f41p-1);

  EXPECT_EQ(prediction.all.jobs, 1696u);
  EXPECT_EQ(prediction.redundant.jobs, 559u);
  EXPECT_EQ(prediction.non_redundant.jobs, 1137u);
  EXPECT_EQ(prediction.all.avg_ratio, 0x1.8cae5cb7686edp+2);
  EXPECT_EQ(prediction.redundant.avg_ratio, 0x1.9229ec7ca86c3p+2);
  EXPECT_EQ(prediction.non_redundant.avg_ratio, 0x1.89fc4eff1242fp+2);
}

TEST(SweepDeterminism, CallbacksFireInAddOrder) {
  std::vector<int> order;
  CampaignSweep sweep(2, 4);
  for (int i = 0; i < 4; ++i) {
    ExperimentConfig c = tiny_config();
    c.scheme = RedundancyScheme::fixed(2 + (i % 2));
    sweep.add_relative(c, [&order, i](const RelativeMetrics&) {
      order.push_back(i);
    });
  }
  sweep.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SweepDeterminism, LastCacheStatsSeesCrossPointSharing) {
  // Two points differing only in a treatment knob (redundant fraction)
  // share one trace_affinity and one set of cached trace inputs: the
  // sweep-level delta counters must show the sharing.
  EXPECT_EQ(trace_affinity(tiny_config()), trace_affinity(tiny_config()));
  ExperimentConfig a = tiny_config();
  a.scheme = RedundancyScheme::fixed(2);
  ExperimentConfig b = a;
  b.redundant_fraction = 0.25;
  EXPECT_EQ(trace_affinity(a), trace_affinity(b));
  ExperimentConfig other_seed = a;
  other_seed.seed += 1;
  EXPECT_NE(trace_affinity(a), trace_affinity(other_seed));

  CampaignSweep sweep(1, 1);
  int fired = 0;
  sweep.add_classified(a, [&fired](const ClassifiedCampaign&) { ++fired; });
  sweep.add_classified(b, [&fired](const ClassifiedCampaign&) { ++fired; });
  sweep.run();
  EXPECT_EQ(fired, 2);
  // The second point's streams come straight from the cache the first
  // point (or an earlier test) populated.
  EXPECT_GT(sweep.last_cache_stats().stream_hits, 0u);
}

TEST(SweepDeterminism, CalibratedPointsShareEachClusterCalibration) {
  // Fraction-sweep points over one calibrated workload share every
  // cluster's memoized calibration: the affine leader of each replication
  // misses once per cluster and every other lookup hits, for any worker
  // count, with identical results.
  ExperimentConfig base = tiny_config();
  base.load_mode = LoadMode::kCalibrated;
  base.target_utilization = 0.8;
  base.scheme = RedundancyScheme::fixed(2);
  constexpr int kReps = 2;
  constexpr std::size_t kPoints = 3;
  std::vector<std::vector<RelativeMetrics>> by_jobs;
  for (const int jobs : {1, 3}) {
    workload::TraceCache::global().clear();
    CampaignSweep sweep(kReps, jobs);
    std::vector<RelativeMetrics> points(kPoints);
    for (std::size_t i = 0; i < kPoints; ++i) {
      ExperimentConfig c = base;
      c.redundant_fraction = 0.25 * static_cast<double>(i + 1);
      sweep.add_relative(
          c, [&points, i](const RelativeMetrics& m) { points[i] = m; });
    }
    sweep.run();
    const SweepCacheStats& cs = sweep.last_cache_stats();
    // Each point runs the scheme and its own NONE baseline: the points'
    // fractions differ, so they share no run.
    const std::uint64_t lookups = 2 * kReps * kPoints * base.n_clusters;
    EXPECT_EQ(cs.calibration_misses, kReps * base.n_clusters)
        << "jobs=" << jobs;
    EXPECT_EQ(cs.calibration_hits, lookups - kReps * base.n_clusters)
        << "jobs=" << jobs;
    by_jobs.push_back(points);
  }
  for (std::size_t i = 0; i < kPoints; ++i) {
    expect_identical(by_jobs[1][i], by_jobs[0][i]);
  }
}

TEST(SweepDeterminism, ValidatesArguments) {
  EXPECT_THROW(CampaignSweep(0), std::invalid_argument);
  CampaignSweep sweep(2);
  ExperimentConfig c = tiny_config();  // scheme defaults to NONE
  EXPECT_THROW(sweep.add_relative(c, [](const RelativeMetrics&) {}),
               std::invalid_argument);
}

TEST(SweepRunner, CustomUnitsReduceInOrderForAnyJobCount) {
  for (int jobs : {1, 3}) {
    exec::SweepRunner runner(jobs);
    std::vector<int> doubled;
    std::vector<int> squared;
    runner.add(
        5, [](int u) { return 2 * u; },
        [&doubled](int, int v) { doubled.push_back(v); });
    runner.add(
        3, [](int u) { return u * u; },
        [&squared](int, int v) { squared.push_back(v); });
    runner.run();
    EXPECT_EQ(doubled, (std::vector<int>{0, 2, 4, 6, 8})) << "jobs=" << jobs;
    EXPECT_EQ(squared, (std::vector<int>{0, 1, 4})) << "jobs=" << jobs;
  }
}

TEST(SweepRunner, AffinityGroupingKeepsResultsBitIdentical) {
  // Affinity only reorders execution; reduction order — and therefore
  // every observable output — must match plain add() for any job count.
  for (int jobs : {1, 2, 8}) {
    exec::SweepRunner runner(jobs);
    std::vector<int> a;
    std::vector<int> b;
    std::vector<int> c;
    runner.add_affine(
        3, 42, [](int u) { return 10 + u; },
        [&a](int, int v) { a.push_back(v); });
    runner.add_affine(
        3, 42, [](int u) { return 20 + u; },
        [&b](int, int v) { b.push_back(v); });
    runner.add_affine(
        2, 7, [](int u) { return 30 + u; },
        [&c](int, int v) { c.push_back(v); });
    runner.run();
    EXPECT_EQ(a, (std::vector<int>{10, 11, 12})) << "jobs=" << jobs;
    EXPECT_EQ(b, (std::vector<int>{20, 21, 22})) << "jobs=" << jobs;
    EXPECT_EQ(c, (std::vector<int>{30, 31})) << "jobs=" << jobs;
  }
}

TEST(SweepRunner, SerialAffinityRunsLeadersImmediatelyBeforeFollowers) {
  // jobs=1: each (affinity, unit) group's leader runs, then its followers,
  // before the next group — the tightest locality for an LRU-budgeted
  // cache. Tasks: X and Y share affinity 5; Z opts out (affinity 0).
  // Execution order is observed on the map side (single-threaded here),
  // since results carry no execution-order information by design.
  std::vector<std::string> trace;
  const auto log = [&trace](const char* tag) {
    return [&trace, tag](int u) {
      trace.push_back(tag + std::to_string(u));
      return u;
    };
  };
  exec::SweepRunner runner(1);
  runner.add_affine(2, 5, log("X"), [](int, int) {});
  runner.add_affine(2, 5, log("Y"), [](int, int) {});
  runner.add_affine(1, 0, log("Z"), [](int, int) {});
  runner.run();
  // Flat order X0 X1 Y0 Y1 Z0. Groups: (5,0)={X0 leader, Y0 follower},
  // (5,1)={X1 leader, Y1 follower}, Z0 its own leader. Serial execution
  // merges each leader with its followers in leader order.
  EXPECT_EQ(trace,
            (std::vector<std::string>{"X0", "Y0", "X1", "Y1", "Z0"}));
}

TEST(SweepRunner, ParallelAffinityRunsAllLeadersBeforeAnyFollower) {
  // jobs>1: leaders fan out first, then a barrier, then followers. Record
  // the phase boundary via a counter snapshot.
  exec::SweepRunner runner(4);
  std::atomic<int> executed{0};
  std::atomic<int> followers_seen_before_leaders_done{0};
  constexpr int kLeaders = 3;  // units 0..2 of the first-queued task
  runner.add_affine(
      3, 9,
      [&executed](int u) {
        ++executed;
        return u;
      },
      [](int, int) {});
  runner.add_affine(
      3, 9,
      [&executed, &followers_seen_before_leaders_done](int u) {
        if (executed.load() < kLeaders) {
          ++followers_seen_before_leaders_done;
        }
        ++executed;
        return u;
      },
      [](int, int) {});
  runner.run();
  EXPECT_EQ(followers_seen_before_leaders_done.load(), 0);
  EXPECT_EQ(executed.load(), 6);
}

TEST(SweepRunner, MapExceptionPropagatesAndClearsTheBatch) {
  exec::SweepRunner runner(2);
  runner.add(
      3,
      [](int u) -> int {
        if (u == 1) throw std::runtime_error("unit failed");
        return u;
      },
      [](int, int) {});
  EXPECT_THROW(runner.run(), std::runtime_error);
  // The failed batch is gone; the runner stays usable.
  std::vector<int> out;
  runner.add(2, [](int u) { return u; },
             [&out](int, int v) { out.push_back(v); });
  runner.run();
  EXPECT_EQ(out, (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace rrsim::core

// The mode matrix: every input source (whole stream in memory, windowed
// at W = 1 and W = 64) and record sink (JobRecords, OnlineAccumulator) on
// the classic kernel, plus every input source on the PDES kernel at 1, 2
// and 4 workers, must reproduce the same kernel's retained whole-stream
// replay (PDES: on one worker) — record by record where records are
// kept, headline metrics bit for bit where they are folded online. Run
// under EASY and CBF, on the Lublin model and on an SWF trace whose
// integer submit times tie within and across clusters at every arrival.
// Across schemes instead of modes: schemes of one effective degree run
// identically on every kernel, the exactness CampaignSweep's run sharing
// rests on (RedundancyScheme::effective).
#include <cstddef>
#include <exception>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rrsim/core/experiment.h"
#include "rrsim/metrics/summary.h"
#include "ties_trace.h"

namespace rrsim::core {
namespace {

/// The shared tie-heavy trace (three identical submit times per 60 s
/// slot), in a file named after the running test: ctest runs tests as
/// concurrent processes.
std::string write_ties_trace() {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return check::write_ties_trace(
      /*slots=*/40, /*ties_per_slot=*/3,
      std::string("rrsim_matrix_") + test->test_suite_name() + "_" +
          test->name() + ".swf");
}

ExperimentConfig lublin_input() {
  ExperimentConfig c;
  c.n_clusters = 4;
  c.nodes_per_cluster = 32;
  c.submit_horizon = 1800.0;
  c.scheme = RedundancyScheme::all();
  c.redundant_fraction = 0.5;
  c.seed = 7;
  return c;
}

ExperimentConfig swf_ties_input(const std::string& path) {
  ExperimentConfig c;
  c.n_clusters = 3;  // one file on every cluster: cross-cluster ties
  c.nodes_per_cluster = 16;
  c.submit_horizon = 1800.0;  // cuts the trace's tail
  c.trace_files = {path};
  c.scheme = RedundancyScheme::fixed(2);
  c.redundant_fraction = 0.5;
  c.seed = 13;
  return c;
}

struct Cell {
  bool pdes;
  std::size_t window;  // 0 = whole stream in memory
  bool retain;
  int workers = 2;  // PDES worker threads
  std::string name() const {
    return std::string(pdes ? "pdes" : "classic") + " W=" +
           std::to_string(window) + (retain ? " records" : " accumulator") +
           (pdes ? " workers=" + std::to_string(workers) : "");
  }
};

ExperimentConfig with_cell(ExperimentConfig c, const Cell& cell) {
  c.stream_window = cell.window;
  c.retain_records = cell.retain;
  if (cell.pdes) {
    c.pdes = true;
    c.cross_cluster_latency = 60.0;
    c.pdes_jobs = cell.workers;
  }
  return c;
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

void expect_same_cell(const SimResult& got, const SimResult& want) {
  EXPECT_EQ(got.jobs_generated, want.jobs_generated);
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.ops.submits, want.ops.submits);
  EXPECT_EQ(got.ops.starts, want.ops.starts);
  EXPECT_EQ(got.ops.cancels, want.ops.cancels);
  EXPECT_EQ(got.ops.sched_passes, want.ops.sched_passes);
  EXPECT_EQ(got.gateway_cancels, want.gateway_cancels);
  EXPECT_EQ(got.duplicate_starts, want.duplicate_starts);
  EXPECT_EQ(got.avg_max_queue, want.avg_max_queue);
  if (!got.streamed) {
    ASSERT_EQ(got.records.size(), want.records.size());
    for (std::size_t i = 0; i < want.records.size(); ++i) {
      const metrics::JobRecord& g = got.records[i];
      const metrics::JobRecord& w = want.records[i];
      SCOPED_TRACE("record " + std::to_string(i));
      EXPECT_EQ(g.grid_id, w.grid_id);
      EXPECT_EQ(g.origin_cluster, w.origin_cluster);
      EXPECT_EQ(g.winner_cluster, w.winner_cluster);
      EXPECT_EQ(g.redundant, w.redundant);
      EXPECT_EQ(g.replicas, w.replicas);
      EXPECT_EQ(g.replicas_delivered, w.replicas_delivered);
      EXPECT_EQ(g.nodes, w.nodes);
      EXPECT_EQ(g.submit_time, w.submit_time);
      EXPECT_EQ(g.start_time, w.start_time);
      EXPECT_EQ(g.finish_time, w.finish_time);
      EXPECT_EQ(g.requested_time, w.requested_time);
    }
    return;
  }
  EXPECT_EQ(got.stream.jobs(), want.records.size());
  expect_same_metrics(got.stream.metrics(),
                      metrics::compute_metrics(want.records));
  const metrics::ClassifiedMetrics online = got.stream.classified();
  const metrics::ClassifiedMetrics batch =
      metrics::compute_classified_metrics(want.records);
  expect_same_metrics(online.all, batch.all);
  expect_same_metrics(online.redundant, batch.redundant);
  expect_same_metrics(online.non_redundant, batch.non_redundant);
}

TEST(ModeMatrix, EveryCellMatchesRetainedInMemoryReplay) {
  const std::string path = write_ties_trace();
  // {pdes, window, retain}; PDES rejects the accumulator sink, and runs
  // every window at every worker count.
  std::vector<Cell> cells = {
      {false, 0, true}, {false, 0, false}, {false, 1, true},
      {false, 1, false}, {false, 64, true}, {false, 64, false},
  };
  for (const int workers : {1, 2, 4}) {
    for (const std::size_t window : {0u, 1u, 64u}) {
      if (workers > 1 || window > 0) {  // not the reference itself
        cells.push_back({true, window, true, workers});
      }
    }
  }
  for (const sched::Algorithm algo :
       {sched::Algorithm::kEasy, sched::Algorithm::kCbf}) {
    for (ExperimentConfig input : {lublin_input(), swf_ties_input(path)}) {
      input.algorithm = algo;
      SCOPED_TRACE(sched::algorithm_name(algo) +
                   (input.trace_files.empty() ? " lublin" : " swf ties"));
      // Each cell against the same algorithm's replay on its kernel.
      const SimResult classic =
          run_experiment(with_cell(input, {false, 0, true}));
      const SimResult pdes =
          run_experiment(with_cell(input, {true, 0, true, 1}));
      ASSERT_GT(classic.jobs_generated, 100u);
      ASSERT_EQ(classic.records.size(), classic.jobs_generated);
      ASSERT_GT(pdes.pdes_windows, 0u);
      for (const Cell& cell : cells) {
        SCOPED_TRACE(cell.name());
        SimResult got;
        try {
          got = run_experiment(with_cell(input, cell));
        } catch (const std::exception& e) {
          ADD_FAILURE() << "cell rejected: " << e.what();
          continue;
        }
        expect_same_cell(got, cell.pdes ? pdes : classic);
      }
    }
  }
}

TEST(ModeMatrix, SchemesOfOneEffectiveDegreeRunIdentically) {
  // Each group sends the same number of requests per job at its N; the
  // first of {NONE, HALF, R1} at N = 2 differs from the others in drawing
  // no redundancy coins. A kernel that read the scheme's kind, or observed
  // a degree-1 coin, would split a group here.
  struct Group {
    std::size_t n;
    std::vector<RedundancyScheme> schemes;
  };
  const RedundancyScheme r2 = RedundancyScheme::fixed(2);
  const RedundancyScheme r3 = RedundancyScheme::fixed(3);
  const RedundancyScheme r4 = RedundancyScheme::fixed(4);
  const RedundancyScheme half = RedundancyScheme::half();
  const RedundancyScheme all = RedundancyScheme::all();
  const std::vector<Group> groups = {
      {2, {RedundancyScheme::none(), half, RedundancyScheme::fixed(1)}},
      {2, {r2, r3, r4, all}},
      {3, {r2, half}},
      {3, {r3, r4, all}},
      {4, {r4, all}},
      {5, {r3, half}},
  };
  // Classic retained, classic streaming at W = 64, PDES.
  const std::vector<Cell> cells = {
      {false, 0, true}, {false, 64, false}, {true, 0, true}};
  for (const Group& group : groups) {
    ExperimentConfig input = lublin_input();
    input.n_clusters = group.n;
    input.scheme = group.schemes.front();
    SCOPED_TRACE("N = " + std::to_string(group.n) + ", group of " +
                 input.scheme.name());
    const SimResult classic =
        run_experiment(with_cell(input, {false, 0, true}));
    const SimResult pdes = run_experiment(with_cell(input, {true, 0, true}));
    ASSERT_GT(classic.jobs_generated, 100u);
    ASSERT_GT(pdes.pdes_windows, 0u);
    for (const RedundancyScheme& scheme : group.schemes) {
      input.scheme = scheme;
      for (const Cell& cell : cells) {
        SCOPED_TRACE(scheme.name() + " " + cell.name());
        const SimResult got = run_experiment(with_cell(input, cell));
        const SimResult& want = cell.pdes ? pdes : classic;
        expect_same_cell(got, want);
        EXPECT_EQ(got.ops.rejects, want.ops.rejects);
        EXPECT_EQ(got.ops.finishes, want.ops.finishes);
        EXPECT_EQ(got.ops.declines, want.ops.declines);
        EXPECT_EQ(got.replicas_dropped, want.replicas_dropped);
        EXPECT_EQ(got.duplicate_finishes, want.duplicate_finishes);
        EXPECT_EQ(got.pdes_windows, want.pdes_windows);
        EXPECT_EQ(got.queue_growth_per_hour, want.queue_growth_per_hour);
      }
    }
  }
}

}  // namespace
}  // namespace rrsim::core

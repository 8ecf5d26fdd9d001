// SWF replay through the spill-to-disk window spool (trace_files +
// stream_window > 0) must reproduce the retained whole-stream replay
// bit-identically — including the integer-time ties real archive traces
// are full of, where same-second arrivals from different clusters must
// fire in the retained path's (time, cluster, within-file index) order.
#include <cstddef>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "rrsim/core/experiment.h"
#include "rrsim/metrics/summary.h"
#include "rrsim/workload/swf.h"
#include "rrsim/workload/trace_cache.h"

namespace rrsim::core {
namespace {

/// A synthetic trace built for tie-breaking trouble: three jobs per
/// integer timestamp (within-file ties), replayed onto several clusters
/// (cross-cluster ties at every arrival), some jobs wider than the
/// clusters (exercises the width filter), and a tail past the horizon
/// (exercises the horizon cut). Written to a file named after the running
/// test: ctest runs every test as its own process, concurrently, so a
/// shared path would be rewritten under a reader's feet.
std::string write_ties_trace() {
  workload::JobStream s;
  for (std::size_t i = 0; i < 150; ++i) {
    workload::JobSpec j;
    j.submit_time = 60.0 * static_cast<double>(i / 3);
    j.nodes = 1 + static_cast<int>((i * 7) % 24);  // up to 24 > 16 nodes
    j.runtime = 30.0 + static_cast<double>(i % 17) * 12.5;
    j.requested_time = j.runtime + static_cast<double>(i % 5) * 10.0;
    s.push_back(j);
  }
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + "/rrsim_ties_" +
                           test->test_suite_name() + "_" + test->name() +
                           ".swf";
  workload::write_swf_file(path, s);
  return path;
}

ExperimentConfig replay_config(const std::string& path) {
  ExperimentConfig c;
  c.n_clusters = 3;  // same file on every cluster: ties at every arrival
  c.nodes_per_cluster = 16;
  c.submit_horizon = 2400.0;  // cuts the trace's tail
  c.trace_files = {path};
  c.scheme = RedundancyScheme::fixed(2);
  c.redundant_fraction = 0.5;
  c.seed = 13;
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

TEST(SwfSpool, WindowedReplayMatchesRetainedBitIdentically) {
  const std::string path = write_ties_trace();
  ExperimentConfig retained = replay_config(path);
  const SimResult eager = run_experiment(retained);
  ASSERT_GT(eager.jobs_generated, 100u);
  const metrics::ScheduleMetrics want = metrics::compute_metrics(eager.records);
  const metrics::ClassifiedMetrics want_cls =
      metrics::compute_classified_metrics(eager.records);

  for (const std::size_t window :
       {std::size_t{1}, std::size_t{4}, std::size_t{64}}) {
    SCOPED_TRACE("W=" + std::to_string(window));
    ExperimentConfig windowed = replay_config(path);
    windowed.retain_records = false;
    windowed.stream_window = window;
    const SimResult got = run_experiment(windowed);
    EXPECT_EQ(got.jobs_generated, eager.jobs_generated);
    EXPECT_EQ(got.end_time, eager.end_time);
    EXPECT_EQ(got.ops.starts, eager.ops.starts);
    EXPECT_EQ(got.ops.finishes, eager.ops.finishes);
    EXPECT_EQ(got.ops.cancels, eager.ops.cancels);
    EXPECT_EQ(got.ops.sched_passes, eager.ops.sched_passes);
    EXPECT_EQ(got.gateway_cancels, eager.gateway_cancels);
    EXPECT_EQ(got.avg_max_queue, eager.avg_max_queue);
    expect_same_metrics(got.stream.metrics(), want);
    const metrics::ClassifiedMetrics cls = got.stream.classified();
    expect_same_metrics(cls.all, want_cls.all);
    expect_same_metrics(cls.redundant, want_cls.redundant);
    expect_same_metrics(cls.non_redundant, want_cls.non_redundant);
    // The input side went through the spool: resident trace state is the
    // checkpoint index plus O(window) buffers, not the whole trace.
    EXPECT_LT(got.resident_trace_bytes, eager.resident_trace_bytes);
  }
}

TEST(SwfSpool, PdesWindowedReplayMatchesEagerRecordByRecord) {
  const std::string path = write_ties_trace();
  ExperimentConfig config = replay_config(path);
  config.pdes = true;
  config.cross_cluster_latency = 60.0;
  config.pdes_jobs = 2;
  const SimResult eager = run_experiment(config);
  ASSERT_GT(eager.jobs_generated, 0u);
  ASSERT_GT(eager.pdes_windows, 0u);

  config.stream_window = 8;
  const SimResult windowed = run_experiment(config);
  EXPECT_EQ(windowed.jobs_generated, eager.jobs_generated);
  EXPECT_EQ(windowed.pdes_windows, eager.pdes_windows);
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
  }
  EXPECT_LT(windowed.resident_trace_bytes, eager.resident_trace_bytes);
}

TEST(SwfSpool, RepeatedWindowedRunsShareOneSpool) {
  const std::string path = write_ties_trace();
  ExperimentConfig config = replay_config(path);
  config.retain_records = false;
  config.stream_window = 16;

  const workload::TraceCache& cache = workload::TraceCache::global();
  const std::uint64_t hits0 = cache.spool_hits();
  const std::uint64_t misses0 = cache.spool_misses();
  const SimResult first = run_experiment(config);
  // Homogeneous clusters replaying one file share one SpoolKey: the
  // first cluster builds (miss), the rest attach readers (hits).
  EXPECT_EQ(cache.spool_misses(), misses0 + 1);
  EXPECT_EQ(cache.spool_hits(), hits0 + config.n_clusters - 1);
  const SimResult second = run_experiment(config);
  EXPECT_EQ(cache.spool_misses(), misses0 + 1);
  EXPECT_EQ(cache.spool_hits(), hits0 + 2 * config.n_clusters - 1);
  EXPECT_EQ(second.jobs_generated, first.jobs_generated);
  EXPECT_EQ(second.end_time, first.end_time);
  EXPECT_EQ(second.stream.metrics().avg_stretch,
            first.stream.metrics().avg_stretch);
}

TEST(SwfSpool, HorizonAndWidthFiltersMatchTheRetainedSemantics) {
  // The spool is built from the same load_swf_stream the retained path
  // uses, so the job count visible to both modes is the filtered count.
  const std::string path = write_ties_trace();
  ExperimentConfig retained = replay_config(path);
  const SimResult eager = run_experiment(retained);
  workload::JobStream raw = workload::read_swf_file(path);
  std::size_t kept = 0;
  const double t0 = raw.front().submit_time;
  for (const auto& j : raw) {
    if (j.submit_time - t0 > 2400.0) break;
    if (j.nodes > 16) continue;
    ++kept;
  }
  ASSERT_LT(kept, raw.size());  // both filters actually engaged
  EXPECT_EQ(eager.jobs_generated, retained.n_clusters * kept);

  ExperimentConfig windowed = replay_config(path);
  windowed.retain_records = false;
  windowed.stream_window = 4;
  EXPECT_EQ(run_experiment(windowed).jobs_generated, eager.jobs_generated);
}

}  // namespace
}  // namespace rrsim::core

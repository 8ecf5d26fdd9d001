// StreamWindow contract: concatenating windows reproduces
// generate_stream + apply_estimator bit-for-bit regardless of window size,
// seed, or estimator; checkpoints make any window rematerializable in
// isolation; and the argument-validation throws fire.
#include "rrsim/workload/stream_window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "rrsim/util/rng.h"
#include "rrsim/workload/estimators.h"
#include "rrsim/workload/lublin.h"

namespace rrsim::workload {
namespace {

constexpr int kMaxNodes = 128;
constexpr double kHorizon = 1800.0;  // a few hundred jobs at 5 s spacing

/// The reference the windowed path must match: the eager pipeline exactly
/// as the resolver runs it (whole stream, then the estimator pass).
JobStream materialized(const LublinParams& params, double horizon,
                       std::uint64_t seed, const RuntimeEstimator& est) {
  util::Rng stream_rng(seed);
  util::Rng est_rng(seed + 1000);
  const LublinModel model(params, kMaxNodes);
  JobStream stream = model.generate_stream(stream_rng, horizon);
  apply_estimator(stream, est, est_rng);
  return stream;
}

/// Drains a fresh StreamWindow in `window`-sized pulls.
JobStream windowed(const LublinParams& params, double horizon,
                   std::uint64_t seed, const RuntimeEstimator& est,
                   std::size_t window) {
  StreamWindow gen(params, kMaxNodes, horizon, util::Rng(seed),
                   util::Rng(seed + 1000), est);
  JobStream all;
  JobStream buf;
  while (gen.next(window, buf) > 0) {
    all.insert(all.end(), buf.begin(), buf.end());
  }
  return all;
}

void expect_same_jobs(const JobStream& got, const JobStream& want,
                      std::size_t offset = 0) {
  ASSERT_EQ(got.size(), want.size());  // offset only labels the messages
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].submit_time, want[i].submit_time) << "job " << i + offset;
    ASSERT_EQ(got[i].nodes, want[i].nodes) << "job " << i + offset;
    ASSERT_EQ(got[i].runtime, want[i].runtime) << "job " << i + offset;
    ASSERT_EQ(got[i].requested_time, want[i].requested_time)
        << "job " << i + offset;
  }
}

TEST(StreamWindow, BitIdenticalToMaterializedAcrossSeedsWindowsEstimators) {
  const LublinParams params;
  for (const char* estimator_name : {"exact", "phi", "uniform216"}) {
    const std::unique_ptr<RuntimeEstimator> est =
        make_estimator(estimator_name);
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      const JobStream want = materialized(params, kHorizon, seed, *est);
      ASSERT_GT(want.size(), 100u);  // the comparison must have teeth
      // W = 1 (every boundary), small/odd, typical, and W > stream length
      // (single pull) must all concatenate to the same stream.
      for (const std::size_t window :
           {std::size_t{1}, std::size_t{7}, std::size_t{64},
            want.size() + 100}) {
        SCOPED_TRACE(std::string(estimator_name) + " seed=" +
                     std::to_string(seed) + " W=" + std::to_string(window));
        expect_same_jobs(windowed(params, kHorizon, seed, *est, window),
                         want);
      }
    }
  }
}

TEST(StreamWindow, CheckpointSeekMaterializesAnyWindowInIsolation) {
  const LublinParams params;
  const ExactEstimator est;
  const std::uint64_t seed = 11;
  const std::size_t window = 16;
  const JobStream want = materialized(params, kHorizon, seed, est);
  const CheckpointedTrace trace =
      scan_checkpoints(params, kMaxNodes, kHorizon, util::Rng(seed),
                       util::Rng(seed + 1000), est, window);
  EXPECT_EQ(trace.window, window);
  EXPECT_EQ(trace.total_jobs, want.size());
  ASSERT_EQ(trace.checkpoints.size(), (want.size() + window - 1) / window);

  // Rematerialize the windows out of order — each from its checkpoint
  // alone — and compare against the contiguous slice of the reference.
  JobStream buf;
  for (std::size_t k = trace.checkpoints.size(); k-- > 0;) {
    const StreamCheckpoint& at = trace.checkpoints[k];
    EXPECT_EQ(at.job_index, k * window);
    StreamWindow gen(params, kMaxNodes, kHorizon, at, est);
    const std::size_t got = gen.next(window, buf);
    const std::size_t begin = k * window;
    ASSERT_EQ(got, std::min(window, want.size() - begin));
    const JobStream slice(want.begin() + static_cast<std::ptrdiff_t>(begin),
                          want.begin() + static_cast<std::ptrdiff_t>(
                                             begin + got));
    expect_same_jobs(buf, slice, begin);
  }
}

TEST(StreamWindow, ResumedGeneratorContinuesToTheEndOfTheStream) {
  const LublinParams params;
  const ExactEstimator est;
  const JobStream want = materialized(params, kHorizon, 3, est);
  StreamWindow gen(params, kMaxNodes, kHorizon, util::Rng(3),
                   util::Rng(1003), est);
  JobStream buf;
  gen.next(10, buf);  // consume a prefix...
  const StreamCheckpoint mid = gen.checkpoint();
  EXPECT_EQ(mid.job_index, 10u);
  // ...then resume from the captured state and drain the whole suffix.
  StreamWindow resumed(params, kMaxNodes, kHorizon, mid, est);
  JobStream suffix;
  while (resumed.next(1000, buf) > 0) {
    suffix.insert(suffix.end(), buf.begin(), buf.end());
  }
  EXPECT_TRUE(resumed.exhausted());
  EXPECT_EQ(resumed.jobs_emitted(), want.size());
  expect_same_jobs(suffix,
                   JobStream(want.begin() + 10, want.end()), 10);
}

TEST(StreamWindow, EmptyStreamIsExhaustedImmediately) {
  const LublinParams params;
  const ExactEstimator est;
  // Horizon 0: the primed first arrival (> 0) already falls outside.
  StreamWindow gen(params, kMaxNodes, 0.0, util::Rng(5), util::Rng(6), est);
  EXPECT_TRUE(gen.exhausted());
  JobStream buf{JobSpec{}};  // next() must clear stale contents
  EXPECT_EQ(gen.next(8, buf), 0u);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(gen.jobs_emitted(), 0u);
  const CheckpointedTrace trace = scan_checkpoints(
      params, kMaxNodes, 0.0, util::Rng(5), util::Rng(6), est, 4);
  EXPECT_EQ(trace.total_jobs, 0u);
  EXPECT_TRUE(trace.checkpoints.empty());
}

TEST(StreamWindow, RejectsInvalidArguments) {
  const LublinParams params;
  const ExactEstimator est;
  EXPECT_THROW(StreamWindow(params, kMaxNodes, -1.0, util::Rng(1),
                            util::Rng(2), est),
               std::invalid_argument);
  StreamWindow gen(params, kMaxNodes, 100.0, util::Rng(1), util::Rng(2), est);
  JobStream buf;
  EXPECT_THROW(gen.next(0, buf), std::invalid_argument);
  EXPECT_THROW(scan_checkpoints(params, kMaxNodes, 100.0, util::Rng(1),
                                util::Rng(2), est, 0),
               std::invalid_argument);
}

TEST(MemorySource, PullsViewsOfTheResidentStreamWithoutCopying) {
  const ExactEstimator est;
  auto stream = std::make_shared<const JobStream>(
      materialized(LublinParams{}, kHorizon, 9, est));
  ASSERT_GT(stream->size(), 10u);
  MemorySource source(stream);
  JobStream scratch;
  JobStream all;
  while (!source.exhausted()) {
    const std::span<const JobSpec> view = source.pull(7, scratch);
    ASSERT_FALSE(view.empty());
    ASSERT_LE(view.size(), 7u);
    EXPECT_GE(view.data(), stream->data());  // a view into the stream
    EXPECT_LE(view.data() + view.size(), stream->data() + stream->size());
    all.insert(all.end(), view.begin(), view.end());
  }
  EXPECT_TRUE(scratch.empty());
  EXPECT_EQ(scratch.capacity(), 0u);
  expect_same_jobs(all, *stream);
  EXPECT_TRUE(source.pull(7, scratch).empty());
  EXPECT_THROW(source.pull(0, scratch), std::invalid_argument);
}

TEST(MemorySource, NextCopiesWindowsLikeTheOtherSources) {
  const ExactEstimator est;
  auto stream = std::make_shared<const JobStream>(
      materialized(LublinParams{}, kHorizon, 11, est));
  MemorySource source(stream);
  JobStream buf{JobSpec{}};  // next() must replace stale contents
  JobStream all;
  while (source.next(5, buf) > 0) {
    ASSERT_LE(buf.size(), 5u);
    all.insert(all.end(), buf.begin(), buf.end());
  }
  EXPECT_TRUE(buf.empty());
  expect_same_jobs(all, *stream);
  EXPECT_THROW(MemorySource(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace rrsim::workload

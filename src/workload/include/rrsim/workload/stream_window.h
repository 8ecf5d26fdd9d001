// Windowed (pull-based) generation of Lublin job streams.
//
// LublinModel::generate_stream materializes a whole horizon of jobs at
// once, which makes trace bytes the dominant resident set of grid-scale
// campaigns: 10^7 JobSpecs are ~320 MB before the simulation proper has
// allocated anything. StreamWindow is the lazy counterpart — it holds the
// generator *state* (two Rngs and the arrival clock, ~50 bytes) and emits
// jobs in caller-bounded chunks, so a campaign's resident trace state is
// O(window x clusters) instead of O(total jobs).
//
// Bit-identity by construction: StreamWindow performs exactly the draws
// generate_stream + apply_estimator perform, on the same two generators,
// in the same per-generator order. The stream Rng's sequence is
// [interarrival][nodes, runtime][interarrival]... regardless of where
// window boundaries fall, and the estimator Rng is consumed once per job
// in job order — interleaving the estimator draw per job instead of in a
// second pass cannot change either sequence because the two generators
// are independent. tests/workload/stream_window_test.cpp pins the
// concatenated windows == materialized stream equality across seeds,
// window sizes, and estimators.
//
// Checkpoints make the stream seekable: a StreamCheckpoint captures the
// full generator state between jobs, so window k of a 10^7-job stream can
// be rematerialized from checkpoint k in O(window) work instead of
// regenerating from t = 0 (see workload::TraceCache, which memoizes
// checkpoint tables per trace key for common-random-number sweeps).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "rrsim/util/rng.h"
#include "rrsim/workload/estimators.h"
#include "rrsim/workload/jobspec.h"
#include "rrsim/workload/lublin.h"

namespace rrsim::workload {

/// Complete generator state between two jobs of a windowed stream: restore
/// it (plus the same model parameters, horizon, and estimator) and the
/// remaining suffix of the stream regenerates bit-identically.
struct StreamCheckpoint {
  std::pair<std::uint64_t, std::uint64_t> stream_rng{0, 0};
  std::pair<std::uint64_t, std::uint64_t> est_rng{0, 0};
  /// Submit time of the next job, already drawn from the stream Rng (the
  /// generate_stream loop draws the gap *before* deciding whether the job
  /// is inside the horizon).
  double next_arrival = 0.0;
  /// Jobs emitted before this checkpoint.
  std::uint64_t job_index = 0;
  /// True when the stream ended before this state (next_arrival fell past
  /// the horizon); such a checkpoint yields no further jobs.
  bool exhausted = false;
};

/// A whole stream described by its window boundaries instead of its jobs:
/// checkpoints[k] is the generator state with exactly k * window jobs
/// emitted (checkpoints[0] is the initial state), so any window can be
/// rematerialized independently. ~48 bytes per window instead of
/// ~32 bytes per job. An empty stream has no checkpoints.
struct CheckpointedTrace {
  std::size_t window = 0;         ///< jobs per window (the W of the table)
  std::uint64_t total_jobs = 0;   ///< exact stream length
  std::vector<StreamCheckpoint> checkpoints;  ///< one per window, in order

  /// Approximate resident payload bytes (for cache budgeting).
  std::size_t payload_bytes() const noexcept {
    return checkpoints.capacity() * sizeof(StreamCheckpoint);
  }
};

/// The pull interface every job source presents: generator-backed
/// (StreamWindow), file-backed (WindowSpool::Reader) and resident
/// (MemorySource) sources are interchangeable to the arrival pump, which
/// only ever asks for "the next up-to-W jobs".
class WindowSource {
 public:
  virtual ~WindowSource() = default;

  /// Replaces the contents of `out` with the next up-to-`max_jobs` jobs.
  /// Returns the number emitted; 0 iff the source is exhausted. Throws
  /// std::invalid_argument on max_jobs == 0.
  virtual std::size_t next(std::size_t max_jobs, JobStream& out) = 0;

  /// Same pull as next(), returned as a view that stays valid until the
  /// following pull. `scratch` backs the view for sources that
  /// materialize their jobs; a resident source returns a view into its own
  /// storage and leaves `scratch` untouched.
  virtual std::span<const JobSpec> pull(std::size_t max_jobs,
                                        JobStream& scratch) {
    next(max_jobs, scratch);
    return scratch;
  }

  /// True once the source has ended (no further next() will emit).
  virtual bool exhausted() const noexcept = 0;
};

/// A whole stream already in memory (a TraceCache snapshot or a loaded
/// SWF replay) behind the pull interface. Shares ownership of the stream,
/// so cache eviction cannot invalidate a run in flight; pull() hands out
/// windows without copying.
class MemorySource : public WindowSource {
 public:
  explicit MemorySource(std::shared_ptr<const JobStream> stream);

  std::size_t next(std::size_t max_jobs, JobStream& out) override;
  std::span<const JobSpec> pull(std::size_t max_jobs,
                                JobStream& scratch) override;
  bool exhausted() const noexcept override {
    return next_ >= stream_->size();
  }

 private:
  std::shared_ptr<const JobStream> stream_;
  std::size_t next_ = 0;
};

/// Pull-based Lublin stream generator. Not thread-safe; each consumer
/// (arrival pump, checkpoint scan) owns its instance. The estimator is
/// borrowed and must outlive the generator.
class StreamWindow : public WindowSource {
 public:
  /// Starts a fresh stream: takes the generators by value at exactly the
  /// states generate_stream/apply_estimator would receive them, and primes
  /// the first arrival (one interarrival draw, as generate_stream does
  /// before its loop). Throws std::invalid_argument on horizon < 0 (and
  /// on invalid model parameters, via LublinModel).
  StreamWindow(const LublinParams& params, int max_nodes, double horizon,
               const util::Rng& stream_rng, const util::Rng& est_rng,
               const RuntimeEstimator& estimator);

  /// Resumes mid-stream from a checkpoint captured on an identically
  /// parameterized generator. No draws are performed on construction —
  /// the checkpoint's next_arrival is already drawn.
  StreamWindow(const LublinParams& params, int max_nodes, double horizon,
               const StreamCheckpoint& at, const RuntimeEstimator& estimator);

  /// Replaces the contents of `out` with the next up-to-`max_jobs` jobs
  /// (submit_time, nodes, runtime, and estimator-applied requested_time
  /// all final). Returns the number emitted; 0 iff the stream is
  /// exhausted. Throws std::invalid_argument on max_jobs == 0.
  std::size_t next(std::size_t max_jobs, JobStream& out) override;

  /// True once the stream has ended (no further next() will emit).
  bool exhausted() const noexcept override { return exhausted_; }

  /// Jobs emitted so far (across all next() calls, plus the checkpoint's
  /// job_index when resumed).
  std::uint64_t jobs_emitted() const noexcept { return job_index_; }

  /// Captures the current between-jobs generator state.
  StreamCheckpoint checkpoint() const;

 private:
  LublinModel model_;
  double horizon_;
  util::Rng stream_rng_;
  util::Rng est_rng_;
  const RuntimeEstimator* estimator_;
  double next_arrival_ = 0.0;
  std::uint64_t job_index_ = 0;
  bool exhausted_ = false;
};

/// One full generation pass that records the generator state every
/// `window` jobs and discards the jobs themselves: O(window) resident, one
/// stream's worth of draws. The result is the seekable description a
/// TraceCache checkpoint entry stores. Throws std::invalid_argument on
/// window == 0.
CheckpointedTrace scan_checkpoints(const LublinParams& params, int max_nodes,
                                   double horizon,
                                   const util::Rng& stream_rng,
                                   const util::Rng& est_rng,
                                   const RuntimeEstimator& estimator,
                                   std::size_t window);

}  // namespace rrsim::workload

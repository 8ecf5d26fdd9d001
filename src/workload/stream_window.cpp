#include "rrsim/workload/stream_window.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rrsim::workload {

MemorySource::MemorySource(std::shared_ptr<const JobStream> stream)
    : stream_(std::move(stream)) {
  if (!stream_) throw std::invalid_argument("MemorySource needs a stream");
}

std::size_t MemorySource::next(std::size_t max_jobs, JobStream& out) {
  const std::span<const JobSpec> view = pull(max_jobs, out);
  out.assign(view.begin(), view.end());
  return out.size();
}

std::span<const JobSpec> MemorySource::pull(std::size_t max_jobs,
                                            JobStream& /*scratch*/) {
  if (max_jobs == 0) throw std::invalid_argument("max_jobs must be > 0");
  const std::size_t count = std::min(max_jobs, stream_->size() - next_);
  const std::span<const JobSpec> view(stream_->data() + next_, count);
  next_ += count;
  return view;
}

StreamWindow::StreamWindow(const LublinParams& params, int max_nodes,
                           double horizon, const util::Rng& stream_rng,
                           const util::Rng& est_rng,
                           const RuntimeEstimator& estimator)
    : model_(params, max_nodes),
      horizon_(horizon),
      stream_rng_(stream_rng),
      est_rng_(est_rng),
      estimator_(&estimator) {
  if (horizon < 0.0) throw std::invalid_argument("horizon must be >= 0");
  // Prime the first arrival exactly as generate_stream does before its
  // loop; a gap past the horizon means the stream is empty, with the same
  // single interarrival draw consumed either way.
  next_arrival_ = model_.sample_interarrival(stream_rng_);
  exhausted_ = next_arrival_ > horizon_;
}

StreamWindow::StreamWindow(const LublinParams& params, int max_nodes,
                           double horizon, const StreamCheckpoint& at,
                           const RuntimeEstimator& estimator)
    : model_(params, max_nodes),
      horizon_(horizon),
      stream_rng_(util::Rng::from_fingerprint(at.stream_rng)),
      est_rng_(util::Rng::from_fingerprint(at.est_rng)),
      estimator_(&estimator),
      next_arrival_(at.next_arrival),
      job_index_(at.job_index),
      exhausted_(at.exhausted || at.next_arrival > horizon) {
  if (horizon < 0.0) throw std::invalid_argument("horizon must be >= 0");
}

std::size_t StreamWindow::next(std::size_t max_jobs, JobStream& out) {
  if (max_jobs == 0) throw std::invalid_argument("max_jobs must be > 0");
  out.clear();
  while (out.size() < max_jobs && !exhausted_) {
    // Same per-job draw order as generate_stream: nodes, runtime (both
    // from the stream Rng via sample_job), then the next interarrival
    // gap. The estimator draw interleaves per job but runs on its own
    // generator, so its sequence matches apply_estimator's second pass.
    JobSpec spec = model_.sample_job(stream_rng_);
    spec.submit_time = next_arrival_;
    spec.requested_time = estimator_->requested_for(spec.runtime, est_rng_);
    out.push_back(spec);
    ++job_index_;
    next_arrival_ += model_.sample_interarrival(stream_rng_);
    exhausted_ = next_arrival_ > horizon_;
  }
  return out.size();
}

StreamCheckpoint StreamWindow::checkpoint() const {
  StreamCheckpoint cp;
  cp.stream_rng = stream_rng_.fingerprint();
  cp.est_rng = est_rng_.fingerprint();
  cp.next_arrival = next_arrival_;
  cp.job_index = job_index_;
  cp.exhausted = exhausted_;
  return cp;
}

CheckpointedTrace scan_checkpoints(const LublinParams& params, int max_nodes,
                                   double horizon,
                                   const util::Rng& stream_rng,
                                   const util::Rng& est_rng,
                                   const RuntimeEstimator& estimator,
                                   std::size_t window) {
  if (window == 0) throw std::invalid_argument("window must be > 0");
  CheckpointedTrace trace;
  trace.window = window;
  StreamWindow gen(params, max_nodes, horizon, stream_rng, est_rng,
                   estimator);
  JobStream scratch;
  scratch.reserve(window);
  while (!gen.exhausted()) {
    trace.checkpoints.push_back(gen.checkpoint());
    gen.next(window, scratch);
  }
  trace.total_jobs = gen.jobs_emitted();
  return trace;
}

}  // namespace rrsim::workload

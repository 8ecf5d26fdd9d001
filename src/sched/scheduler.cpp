#include "rrsim/sched/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rrsim::sched {

ClusterScheduler::ClusterScheduler(des::Simulation& sim, int total_nodes)
    : sim_(sim),
      total_nodes_(total_nodes),
      free_nodes_(total_nodes) {
  if (total_nodes_ < 1) {
    throw std::invalid_argument("scheduler needs >= 1 node");
  }
}

void ClusterScheduler::reset() {
  free_nodes_ = total_nodes_;
  counters_ = OpCounters{};
  per_user_limit_.reset();
  pending_per_user_.clear();
  running_.clear();
#if RRSIM_VALIDATE_ENABLED
  debug_validate();
#endif
}

#if RRSIM_VALIDATE_ENABLED
void ClusterScheduler::validate_op(JobId touched, Place expected) const {
  RRSIM_CHECK(free_nodes_ >= 0 && free_nodes_ <= total_nodes_,
              "scheduler free-node count outside [0, total]");
  int allocated = 0;
  for (const auto& [id, job] : running_) allocated += job.nodes;
  RRSIM_CHECK(free_nodes_ == total_nodes_ - allocated,
              "scheduler free-node count disagrees with the running set");
  RRSIM_CHECK(queued(touched) == (expected == Place::kQueue),
              "queue membership disagrees with the operation just applied");
  RRSIM_CHECK(
      (running_.find(touched) != running_.end()) ==
          (expected == Place::kRunning),
      "running set membership disagrees with the operation just applied");
  if (!cancel_in_pass_) validate_pending_counts();
}

void ClusterScheduler::validate_pending_counts() const {
  RRSIM_CHECK(per_user_limit_ || pending_per_user_.empty(),
              "per-user pending table filled without a limit");
  std::size_t counted = 0;
  pending_per_user_.for_each([&counted](const UserId&, const int& count) {
    RRSIM_CHECK(count > 0, "per-user pending table keeps a count <= 0");
    counted += static_cast<std::size_t>(count);
  });
  RRSIM_CHECK(!per_user_limit_ || counted == queue_length(),
              "per-user pending counts do not sum to the queue length");
}

void ClusterScheduler::debug_validate() const {
  RRSIM_CHECK(free_nodes_ >= 0 && free_nodes_ <= total_nodes_,
              "scheduler free-node count outside [0, total]");
  int allocated = 0;
  for (const auto& [id, job] : running_) {
    allocated += job.nodes;
    RRSIM_CHECK(!queued(id), "a running job is still queued");
  }
  RRSIM_CHECK(free_nodes_ == total_nodes_ - allocated,
              "scheduler free-node count disagrees with the running set");
  validate_pending_counts();
}
#endif

std::size_t ClusterScheduler::live_state_bytes() const noexcept {
  return pending_per_user_.memory_bytes() + running_.memory_bytes();
}

void ClusterScheduler::set_per_user_pending_limit(std::optional<int> limit) {
  if (limit && *limit < 0) {
    throw std::invalid_argument("per-user pending limit must be >= 0");
  }
  // The table counts only while a limit is set, so it would miss the jobs
  // already pending when one is enabled.
  if (limit && !per_user_limit_ && queue_length() != 0) {
    throw std::logic_error(
        "per-user pending limit enabled while jobs are pending");
  }
  per_user_limit_ = limit;
  if (!limit) pending_per_user_.clear();
}

bool ClusterScheduler::submit(Job job) {
  if (job.nodes < 1 || job.nodes > total_nodes_) {
    throw std::invalid_argument("job node count not runnable on this cluster");
  }
  if (job.requested_time <= 0.0 || job.actual_time <= 0.0) {
    throw std::invalid_argument("job times must be > 0");
  }
  if (running_.find(job.id) != running_.end() || queued(job.id)) {
    throw std::invalid_argument("duplicate job id submitted");
  }
  if (per_user_limit_ && !job.limit_exempt) {
    const int* pending = pending_per_user_.find(job.user);
    if ((pending != nullptr ? *pending : 0) >= *per_user_limit_) {
      ++counters_.rejects;
      return false;
    }
  }
  job.actual_time = std::min(job.actual_time, job.requested_time);
  job.submit_time = sim_.now();
  ++counters_.submits;
  if (per_user_limit_) ++pending_per_user_[job.user];
#if RRSIM_VALIDATE_ENABLED
  const JobId id = job.id;
  const std::uint64_t declines = counters_.declines;
#endif
  handle_submit(std::move(job));
#if RRSIM_VALIDATE_ENABLED
  // handle_submit may have left the job queued, started it, or had its
  // grant declined (completions are events, so it cannot have finished);
  // wherever it is, it must be there alone.
  const Place reached = running_.find(id) != running_.end() ? Place::kRunning
                        : queued(id)                        ? Place::kQueue
                                                            : Place::kGone;
  RRSIM_CHECK(reached != Place::kGone || counters_.declines > declines,
              "submitted job is neither queued nor running, and no grant "
              "was declined");
  validate_op(id, reached);
#endif
  return true;
}

bool ClusterScheduler::cancel(JobId id) {
  // Only pending jobs are cancellable, and only the algorithm's queue
  // knows which ids it holds.
#if RRSIM_VALIDATE_ENABLED
  const bool outer_cancel = std::exchange(cancel_in_pass_, true);
#endif
  std::optional<Job> job = handle_cancel(id);
#if RRSIM_VALIDATE_ENABLED
  cancel_in_pass_ = outer_cancel;
#endif
  if (!job) return false;
  ++counters_.cancels;
  leave_pending(job->user);
#if RRSIM_VALIDATE_ENABLED
  validate_op(id, Place::kGone);
#endif
  if (callbacks_.on_cancelled) callbacks_.on_cancelled(*job);
  return true;
}

bool ClusterScheduler::try_start(Job job) {
  if (job.nodes > free_nodes_) {
    throw std::logic_error("try_start: not enough free nodes");
  }
  // The job leaves the pending population whether the grant succeeds
  // (it runs) or not (it is dropped as declined).
  leave_pending(job.user);
  if (callbacks_.on_grant && !callbacks_.on_grant(job)) {
    ++counters_.declines;
#if RRSIM_VALIDATE_ENABLED
    validate_op(job.id, Place::kGone);
#endif
    return false;
  }
  job.start_time = sim_.now();
  free_nodes_ -= job.nodes;
  ++counters_.starts;
  const JobId id = job.id;
  running_.emplace(id, job);
  sim_.schedule_at(
      job.finish_time(), [this, id] { complete_job(id); },
      des::Priority::kCompletion, event_tag_);
#if RRSIM_VALIDATE_ENABLED
  validate_op(id, Place::kRunning);
#endif
  // Pass the local copy, not running_.at(id): the callback may start or
  // cancel other jobs, and the flat running set relocates on mutation.
  if (callbacks_.on_start) callbacks_.on_start(job);
  return true;
}

void ClusterScheduler::leave_pending(UserId user) noexcept {
  if (!per_user_limit_) return;
  int* pending = pending_per_user_.find(user);
  RRSIM_CHECK(pending != nullptr && *pending > 0,
              "pending job's user missing from the per-user table");
  if (--*pending == 0) pending_per_user_.erase(user);
}

void ClusterScheduler::complete_job(JobId id) {
  const auto it = running_.find(id);
  if (it == running_.end()) {
    throw std::logic_error("completion for unknown running job");
  }
  Job job = it->second;
  running_.erase(it);
  free_nodes_ += job.nodes;
  ++counters_.finishes;
#if RRSIM_VALIDATE_ENABLED
  validate_op(id, Place::kGone);
#endif
  if (callbacks_.on_finish) callbacks_.on_finish(job);
  handle_completion(job);
}

}  // namespace rrsim::sched

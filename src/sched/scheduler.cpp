#include "rrsim/sched/scheduler.h"

#include <algorithm>
#include <stdexcept>

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
  predictions_.clear();
  known_ids_.clear();
#if RRSIM_VALIDATE_ENABLED
  debug_validate();
#endif
}

#if RRSIM_VALIDATE_ENABLED
void ClusterScheduler::validate_op(JobId touched, JobState expected) const {
  RRSIM_CHECK(free_nodes_ >= 0 && free_nodes_ <= total_nodes_,
              "scheduler free-node count outside [0, total]");
  int allocated = 0;
  for (const auto& [id, job] : running_) allocated += job.nodes;
  RRSIM_CHECK(free_nodes_ == total_nodes_ - allocated,
              "scheduler free-node count disagrees with the running set");
  const JobState* state = known_ids_.find(touched);
  const bool terminal = expected == JobState::kCancelled ||
                        expected == JobState::kDeclined ||
                        expected == JobState::kFinished;
  if (terminal) {
    RRSIM_CHECK(state == nullptr && predictions_.find(touched) == nullptr,
                "ended id still in the lifecycle index or predictions");
  } else {
    RRSIM_CHECK(state != nullptr && *state == expected,
                "lifecycle index disagrees with the operation just applied");
  }
  const bool in_running = running_.find(touched) != running_.end();
  RRSIM_CHECK(in_running == (expected == JobState::kRunning),
              "running set membership disagrees with lifecycle state");
  RRSIM_CHECK(per_user_limit_ || pending_per_user_.empty(),
              "per-user pending table filled without a limit");
}

void ClusterScheduler::debug_validate() const {
  RRSIM_CHECK(free_nodes_ >= 0 && free_nodes_ <= total_nodes_,
              "scheduler free-node count outside [0, total]");
  int allocated = 0;
  for (const auto& [id, job] : running_) {
    allocated += job.nodes;
    const JobState* state = known_ids_.find(id);
    RRSIM_CHECK(state != nullptr && *state == JobState::kRunning,
                "job in the running set is not kRunning in the lifecycle "
                "index");
  }
  RRSIM_CHECK(free_nodes_ == total_nodes_ - allocated,
              "scheduler free-node count disagrees with the running set");
  std::size_t pending = 0;
  known_ids_.for_each([this, &pending](const JobId& id,
                                       const JobState& state) {
    const bool in_running = running_.find(id) != running_.end();
    RRSIM_CHECK(in_running == (state == JobState::kRunning),
                "running set membership disagrees with lifecycle state");
    if (state == JobState::kPending) ++pending;
  });
  // The per-user table holds exactly the users with a pending job, and
  // only while a limit is set.
  std::size_t counted = 0;
  pending_per_user_.for_each([&counted](const UserId&, const int& count) {
    RRSIM_CHECK(count > 0, "per-user pending table keeps a count <= 0");
    counted += static_cast<std::size_t>(count);
  });
  RRSIM_CHECK(per_user_limit_ || pending_per_user_.empty(),
              "per-user pending table filled without a limit");
  RRSIM_CHECK(!per_user_limit_ || counted == pending,
              "per-user pending counts do not sum to the pending jobs");
}
#endif

std::size_t ClusterScheduler::live_state_bytes() const noexcept {
  return pending_per_user_.memory_bytes() + running_.memory_bytes() +
         predictions_.memory_bytes() + known_ids_.memory_bytes();
}

void ClusterScheduler::set_per_user_pending_limit(std::optional<int> limit) {
  if (limit && *limit < 0) {
    throw std::invalid_argument("per-user pending limit must be >= 0");
  }
  // The table counts only while a limit is set, so it would miss the jobs
  // already pending when one is enabled.
  if (limit && !per_user_limit_ && known_ids_.size() != running_.size()) {
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
  if (per_user_limit_ && !job.limit_exempt) {
    const int* pending = pending_per_user_.find(job.user);
    if ((pending != nullptr ? *pending : 0) >= *per_user_limit_) {
      ++counters_.rejects;
      return false;
    }
  }
  if (!known_ids_.try_emplace(job.id, JobState::kPending).inserted) {
    throw std::invalid_argument("duplicate job id submitted");
  }
  job.actual_time = std::min(job.actual_time, job.requested_time);
  job.submit_time = sim_.now();
  ++counters_.submits;
  if (per_user_limit_) ++pending_per_user_[job.user];
#if RRSIM_VALIDATE_ENABLED
  const JobId submitted_id = job.id;
#endif
  handle_submit(std::move(job));
#if RRSIM_VALIDATE_ENABLED
  // handle_submit may have already started the job (empty queue + free
  // nodes), finished it (zero-ish runtimes do not exist, so no), or
  // declined it; accept whatever lifecycle state it reached, but the
  // accounting and membership agreement must hold regardless.
  // An immediate decline — the sole terminal state reachable inside
  // submit, completions being events — erases the entry before we get
  // here.
  const JobState* reached = known_ids_.find(submitted_id);
  validate_op(submitted_id,
              reached != nullptr ? *reached : JobState::kDeclined);
#endif
  return true;
}

bool ClusterScheduler::cancel(JobId id) {
  // Only pending jobs are cancellable. The lifecycle index answers the
  // membership question in O(1) — no walk over the pending queue — and
  // handle_cancel is then guaranteed to find the job in its structures.
  const JobState* state = known_ids_.find(id);
  if (state == nullptr || *state != JobState::kPending) {
    return false;
  }
  Job job = handle_cancel(id);
  known_ids_.erase(id);
  predictions_.erase(id);
  ++counters_.cancels;
  leave_pending(job.user);
#if RRSIM_VALIDATE_ENABLED
  validate_op(id, JobState::kCancelled);
#endif
  if (callbacks_.on_cancelled) callbacks_.on_cancelled(job);
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
    known_ids_.erase(job.id);
    predictions_.erase(job.id);
#if RRSIM_VALIDATE_ENABLED
    validate_op(job.id, JobState::kDeclined);
#endif
    return false;
  }
  job.start_time = sim_.now();
  free_nodes_ -= job.nodes;
  ++counters_.starts;
  const JobId id = job.id;
  known_ids_[id] = JobState::kRunning;
  running_.emplace(id, job);
  sim_.schedule_at(
      job.finish_time(), [this, id] { complete_job(id); },
      des::Priority::kCompletion, event_tag_);
#if RRSIM_VALIDATE_ENABLED
  validate_op(id, JobState::kRunning);
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
  known_ids_.erase(id);
  predictions_.erase(id);
  free_nodes_ += job.nodes;
  ++counters_.finishes;
#if RRSIM_VALIDATE_ENABLED
  validate_op(id, JobState::kFinished);
#endif
  if (callbacks_.on_finish) callbacks_.on_finish(job);
  handle_completion(job);
}

void ClusterScheduler::record_prediction(JobId id, Time predicted_start) {
  predictions_[id] = predicted_start;
}

std::optional<Time> ClusterScheduler::predicted_start_at_submit(
    JobId id) const {
  const Time* t = predictions_.find(id);
  if (t == nullptr) return std::nullopt;
  return *t;
}

}  // namespace rrsim::sched

#include "rrsim/sched/easy.h"

#include <algorithm>
#include <stdexcept>

namespace rrsim::sched {

void EasyScheduler::handle_submit(Job job) {
  queue_.push_back(std::move(job));
  schedule_pass();
}

std::optional<Job> EasyScheduler::handle_cancel(JobId id) {
  const PendingQueue::Slot s = queue_.slot_of(id);
  if (s == queue_.end()) return std::nullopt;
  Job job = queue_.take(s);
  schedule_pass();  // cancellation opens backfill opportunities
  return job;
}

void EasyScheduler::handle_completion(const Job& job) {
  const std::pair<Time, int> key{job.start_time + job.requested_time,
                                 job.nodes};
  const auto it =
      std::lower_bound(running_ends_.begin(), running_ends_.end(), key);
  if (it == running_ends_.end() || *it != key) {
    throw std::logic_error("easy: finished job missing from running_ends_");
  }
  running_ends_.erase(it);  // erase one instance, not all duplicates
#if RRSIM_VALIDATE_ENABLED
  validate_ends();
#endif
  schedule_pass();
}

EasyScheduler::Shadow EasyScheduler::compute_shadow() const {
  const Job& head = queue_.job(queue_.head());
  int avail = free_nodes();
  for (const auto& [end, nodes] : running_ends_) {
    avail += nodes;
    if (avail >= head.nodes) {
      return Shadow{end, avail - head.nodes};
    }
  }
  // Unreachable while the head does not fit: head.nodes <= total_nodes, so
  // draining every running job always yields enough.
  throw std::logic_error("easy: shadow not found for non-fitting head");
}

std::optional<Time> EasyScheduler::head_shadow_time() const {
  if (queue_.empty()) return std::nullopt;
  if (queue_.nodes(queue_.head()) <= free_nodes()) return sim_.now();
  return compute_shadow().time;
}

bool EasyScheduler::start_and_track(Job job) {
  const Time end = sim_.now() + job.requested_time;
  const int nodes = job.nodes;
  if (!try_start(std::move(job))) return false;
  // `end` equals start_time + requested_time: try_start stamps
  // start_time with the same now used above.
  const std::pair<Time, int> key{end, nodes};
  running_ends_.insert(
      std::upper_bound(running_ends_.begin(), running_ends_.end(), key), key);
#if RRSIM_VALIDATE_ENABLED
  validate_ends();
#endif
  return true;
}

void EasyScheduler::schedule_pass() {
  count_pass();
  for (;;) {
    // Phase 1: strict FCFS starts from the head.
    while (!queue_.empty() && queue_.nodes(queue_.head()) <= free_nodes()) {
      start_and_track(queue_.take(queue_.head()));
    }
    if (queue_.empty()) break;

    // Phase 2: backfill behind the (non-fitting) head under the one-
    // reservation rule, visiting only the jobs that fit the free nodes.
    // Shadow/extra are maintained incrementally: a backfilled job that may
    // outlive the shadow consumes `extra`.
    Shadow shadow = compute_shadow();
    const Time now = sim_.now();
    bool declined = false;
    for (PendingQueue::Slot s = queue_.head() + 1; free_nodes() > 0; ++s) {
      s = queue_.next_fitting(s, free_nodes());
      if (s == queue_.end()) break;
      const Job& candidate = queue_.job(s);
      const bool ends_before_shadow =
          now + candidate.requested_time <= shadow.time;
      const bool within_extra = candidate.nodes <= shadow.extra;
      if (ends_before_shadow || within_extra) {
        Job job = queue_.take(s);
        if (!ends_before_shadow) shadow.extra -= job.nodes;
        if (!start_and_track(std::move(job))) {
          // Decline: the start did not happen, so the shadow bookkeeping
          // above may now be stale; restart the whole pass.
          declined = true;
          break;
        }
      }
    }
    if (!declined) break;
  }
#if RRSIM_VALIDATE_ENABLED
  queue_.debug_validate();
#endif
}

}  // namespace rrsim::sched

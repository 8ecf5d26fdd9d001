#include "rrsim/sched/fcfs.h"

namespace rrsim::sched {

void FcfsScheduler::handle_submit(Job job) {
  queue_.push_back(std::move(job));
  schedule_pass();
}

Job FcfsScheduler::handle_cancel(JobId id) {
  Job job = queue_.take(queue_.slot_of(id));
  schedule_pass();  // removing the head may unblock successors
  return job;
}

void FcfsScheduler::handle_completion(const Job&) { schedule_pass(); }

void FcfsScheduler::schedule_pass() {
  count_pass();
  while (!queue_.empty() && queue_.nodes(queue_.head()) <= free_nodes()) {
    // Declined jobs simply leave the queue.
    try_start(queue_.take(queue_.head()));
  }
#if RRSIM_VALIDATE_ENABLED
  queue_.debug_validate();
#endif
}

}  // namespace rrsim::sched

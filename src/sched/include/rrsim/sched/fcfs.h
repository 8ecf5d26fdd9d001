// First-Come-First-Serve: jobs start strictly in arrival order; the head
// of the queue blocks everything behind it. The paper's baseline
// comparator.
#pragma once

#include "rrsim/sched/pending_queue.h"
#include "rrsim/sched/scheduler.h"

namespace rrsim::sched {

/// Strict FCFS batch scheduler (no backfilling).
class FcfsScheduler final : public ClusterScheduler {
 public:
  FcfsScheduler(des::Simulation& sim, int total_nodes)
      : ClusterScheduler(sim, total_nodes) {}

  std::string name() const override { return "fcfs"; }
  std::size_t queue_length() const override { return queue_.size(); }

  void reset() override {
    queue_.clear();
    ClusterScheduler::reset();
  }

  std::size_t live_state_bytes() const noexcept override {
    return ClusterScheduler::live_state_bytes() + queue_.memory_bytes();
  }

#if RRSIM_VALIDATE_ENABLED
  void debug_validate() const override {
    ClusterScheduler::debug_validate();
    queue_.debug_validate();
  }
#endif

 protected:
  void handle_submit(Job job) override;
  std::optional<Job> handle_cancel(JobId id) override;
  void handle_completion(const Job& job) override;
  bool queued(JobId id) const override {
    return queue_.slot_of(id) != queue_.end();
  }

 private:
  /// Starts queued jobs from the head while they fit.
  void schedule_pass();

  PendingQueue queue_;
};

}  // namespace rrsim::sched

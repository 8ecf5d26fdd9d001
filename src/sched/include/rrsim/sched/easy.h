// EASY backfilling (Lifka 1995, as formalised by Mu'alem & Feitelson 2001):
// FCFS with one reservation. The queue head gets a "shadow" reservation at
// the earliest time enough nodes will be free (based on running jobs'
// *requested* end times); any later job may jump ahead if starting it now
// cannot delay that reservation. The paper calls EASY "representative of
// algorithms running in deployed systems today".
#pragma once

#include <utility>
#include <vector>

#include "rrsim/sched/pending_queue.h"
#include "rrsim/sched/scheduler.h"

namespace rrsim::sched {

/// EASY-backfilling batch scheduler.
class EasyScheduler final : public ClusterScheduler {
 public:
  EasyScheduler(des::Simulation& sim, int total_nodes)
      : ClusterScheduler(sim, total_nodes) {}

  std::string name() const override { return "easy"; }
  std::size_t queue_length() const override { return queue_.size(); }

  void reset() override {
    queue_.clear();
    running_ends_.clear();
    ClusterScheduler::reset();
  }

  std::size_t live_state_bytes() const noexcept override {
    return ClusterScheduler::live_state_bytes() + queue_.memory_bytes() +
           running_ends_.capacity() * sizeof(running_ends_[0]);
  }

  /// Shadow reservation currently protecting the queue head: the time at
  /// which the head is guaranteed to start, or nullopt if the queue is
  /// empty. Exposed for tests of the no-head-delay invariant.
  std::optional<Time> head_shadow_time() const;

#if RRSIM_VALIDATE_ENABLED
  void debug_validate() const override {
    ClusterScheduler::debug_validate();
    queue_.debug_validate();
    validate_ends();
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
  struct Shadow {
    Time time = 0.0;  ///< when the head can start, at the latest
    int extra = 0;    ///< nodes free at that moment beyond the head's need
  };

  /// Computes the head's shadow by walking running_ends_ in end order.
  /// Requires a non-empty queue and that the head does not currently fit.
  Shadow compute_shadow() const;

  /// One full scheduling pass: start from the head while possible, then
  /// backfill. Re-runs itself after any decline (queue shape changed).
  void schedule_pass();

  /// Starts `job` via try_start and, on success, records its requested
  /// end in running_ends_. `now + job.requested_time` must be computed
  /// before the move, hence the helper.
  bool start_and_track(Job job);

#if RRSIM_VALIDATE_ENABLED
  /// running_ends_ must mirror the running set (one entry per running
  /// job) and stay sorted — compute_shadow's linear scan depends on it.
  void validate_ends() const {
    RRSIM_CHECK(running_ends_.size() == running_count(),
                "easy: running_ends_ size disagrees with the running set");
    for (std::size_t i = 1; i < running_ends_.size(); ++i) {
      RRSIM_CHECK(running_ends_[i - 1] <= running_ends_[i],
                  "easy: running_ends_ lost its sort order");
    }
  }
#endif

  PendingQueue queue_;
  /// Running jobs as (requested_end, nodes), kept sorted across
  /// start/finish so compute_shadow never re-sorts the running set. The
  /// pairs sort by requested end, then node count.
  /// A sorted vector rather than a multiset: the population is bounded by
  /// the node count, inserts/erases are memmoves of a contiguous 16-byte
  /// element, and compute_shadow becomes a linear scan of one array.
  /// Duplicate (end, nodes) pairs are value-identical, so which instance
  /// an erase removes cannot affect results.
  std::vector<std::pair<Time, int>> running_ends_;
};

}  // namespace rrsim::sched

// Conservative Backfilling (Mu'alem & Feitelson 2001): every job receives
// a reservation when it is submitted — the earliest slot in the
// availability profile that delays no earlier reservation. Jobs may leap-
// frog in start order but never push anyone's reservation back. The
// reservation made at submit time doubles as the scheduler's queue-wait
// prediction, which Section 5 of the paper studies; it goes to the
// owner's on_prediction hook, and the scheduler keeps no copy.
//
// The FCFS-ordered queue_ is the only record of which jobs are pending:
// a cancel, and the duplicate-id check at submit, scan it. Both are
// O(queue), like the dispatch scan every submission already runs.
//
// The implementation is incremental: cancels, declines and early
// completions release their reservation in place (Profile::release) and
// re-reserve only the queue suffix whose slots can actually move, instead
// of rebuilding the whole profile from scratch. Redundant-request
// workloads are cancel-heavy by construction (degree N costs up to N-1
// cancels per grid job), so this is the scheduler's hottest path. An early
// completion always releases the unused tail of its footprint and pulls
// every reservation as early as it can go (the published algorithm's
// "compression" step).
//
// One wake-up event stands for the earliest future reservation. Almost
// every scheduling pass moves it, nearly always to the time it already
// had, so dispatch_ready moves it with EventHandle::reschedule: the same
// seqs and counts as cancel + schedule_at, but the kernel pushes a heap
// entry only when the wake-up moves earlier.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "rrsim/sched/profile.h"
#include "rrsim/sched/scheduler.h"
#include "rrsim/util/flat_map.h"

namespace rrsim::sched {

/// Conservative-backfilling batch scheduler.
class CbfScheduler final : public ClusterScheduler {
 public:
  CbfScheduler(des::Simulation& sim, int total_nodes)
      : ClusterScheduler(sim, total_nodes),
        profile_(total_nodes),
        rebuild_scratch_(total_nodes) {}

  std::string name() const override { return "cbf"; }
  std::size_t queue_length() const override { return queue_.size(); }

  /// Current (possibly compressed) reservation for a pending job, or
  /// nullopt if the job is not pending. The *submit-time* value goes to
  /// the owner's on_prediction hook. O(queue).
  std::optional<Time> current_reservation(JobId id) const;

  /// Enables the incremental-vs-rebuild oracle: after every profile
  /// mutation, the incremental state (profile + reservations) is checked
  /// against a from-scratch rebuild. A mismatch adopts the rebuild result
  /// (so behaviour stays correct) and increments self_check_fallbacks().
  /// Off by default — this is the debug/test invariant check, O(Q) per
  /// operation.
  void set_self_check(bool on) { self_check_ = on; }

  /// Number of self-check mismatches that forced a rebuild fallback.
  /// Tests assert this stays 0; anything else means the incremental
  /// update diverged from the published rebuild semantics.
  std::uint64_t self_check_fallbacks() const noexcept {
    return self_check_fallbacks_;
  }

  std::size_t live_state_bytes() const noexcept override {
    return ClusterScheduler::live_state_bytes() +
           queue_.capacity() * sizeof(Entry) + running_end_.memory_bytes();
  }

  void reset() override {
    queue_.clear();
    profile_.reset();
    running_end_.clear();
    wakeup_ = {};  // the underlying event died with the Simulation reset
    self_check_fallbacks_ = 0;
    ClusterScheduler::reset();
  }

#if RRSIM_VALIDATE_ENABLED
  /// Base sweep plus the CBF index invariants (validate_index()).
  void debug_validate() const override;

  /// Corruption hook for the oracle death tests: swaps the first and last
  /// queued jobs, as an insert that ignored FCFS order would leave them.
  void debug_corrupt_index() {
    if (!queue_.empty()) std::swap(queue_.front(), queue_.back());
  }
#endif

 protected:
  void handle_submit(Job job) override;
  std::optional<Job> handle_cancel(JobId id) override;
  void handle_completion(const Job& job) override;
  bool queued(JobId id) const override {
    return position_of(id) != queue_.size();
  }

 private:
  struct Entry {
    Job job;
    Time reserved_start = 0.0;
  };

  /// Queue position of pending job `id`, or queue_.size() if it is not
  /// queued. O(queue): the answer to queued() and to every cancel.
  std::size_t position_of(JobId id) const;

  /// Releases reservation [r, r+req) from the profile, clipped to the
  /// future (the part before `now` may already have been pruned).
  void release_reservation(Time r, Time req, int nodes);

  /// True if an incremental compression would reproduce a from-scratch
  /// rebuild bit-exactly. A rebuild re-reserves every running footprint
  /// as [now, now + (end - now)); the incremental profile keeps the
  /// breakpoint the footprint was created with. Those agree only when
  /// `now + (end - now) == end` holds in double arithmetic for every
  /// running job (it usually does, but it is not an FP identity) and the
  /// stored breakpoint is still the job's true requested end. O(running).
  bool incremental_base_ok() const;

  /// Compression after capacity was freed: releases every reservation at
  /// queue position >= from_pos and greedily re-reserves them in FCFS
  /// order. Positions before from_pos cannot move — a job's reservation
  /// depends only on the running set and *earlier* queue positions — so
  /// this computes exactly what a from-scratch rebuild would, touching
  /// only the suffix. Callers must have checked incremental_base_ok().
  void compress_from(std::size_t from_pos);

  /// From-scratch fallback: resets the profile (in place) from the
  /// running set and re-reserves every queued job in FCFS order;
  /// reservations can only move earlier. Used when incremental_base_ok()
  /// fails and by the self-check fallback; counted in
  /// OpCounters::profile_rebuilds, which should stay a small fraction of
  /// cancels.
  void rebuild_profile();

  /// Starts, in queue order, every queued job whose reservation time has
  /// arrived and whose nodes are free, then moves the wake-up to the next
  /// future reservation (EventHandle::reschedule, or a fresh event when
  /// none is pending) or cancels it when no reservation lies ahead.
  void dispatch_ready();

  /// Self-check oracle body: compares incremental state against a
  /// from-scratch rebuild into rebuild_scratch_.
  void verify_against_rebuild();

#if RRSIM_VALIDATE_ENABLED
  /// queue_ in FCFS (submit time) order, running_end_ ⊆ running set.
  /// O(queue) — runs after each handler (the handlers themselves are
  /// already O(queue) on their mutation paths).
  void validate_index() const;
#endif

  std::vector<Entry> queue_;  // FCFS order: the only pending structure
  Profile profile_;
  /// Where each running job's footprint actually ends *in the profile*:
  /// its reservation end at start time, possibly re-snapped by a later
  /// rebuild. Tail releases on early completion must use this value, not
  /// a recomputed end, to invert the stored reservation bit-exactly.
  util::FlatHashMap<JobId, Time> running_end_;
  des::Simulation::EventHandle wakeup_;

  bool self_check_ = false;
  std::uint64_t self_check_fallbacks_ = 0;
  Profile rebuild_scratch_;
};

}  // namespace rrsim::sched

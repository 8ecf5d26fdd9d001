// Conservative parallel-DES coordinator (horizon-barrier protocol).
//
// The grid model interacts across clusters only through gateway
// submit/cancel/finish notifications, and those all travel with a fixed
// cross-cluster latency L > 0. That latency is natural *lookahead* in the
// conservative-PDES sense (cf. SimGrid's parallel execution kernel): an
// event dispatched at time te in one partition can influence another
// partition no earlier than te + L. The coordinator exploits exactly
// that:
//
//   1. T  = min over partitions of next_event_time(), and over pending
//           cross-partition messages of their delivery time.
//   2. H  = T + L (capped at the run limit). No message produced by any
//           event in [T, H) can be due before H, so every partition may
//           dispatch its events with time < H independently.
//   3. Deliver pending messages with time < H, globally sorted by
//           (time, priority, source partition, per-source seq), into
//           their destination partitions.
//   4. Advance every partition with run_before(H) — in parallel on a
//           ThreadPool when jobs > 1, in partition order otherwise —
//           and repeat with the messages the window posted.
//
// Determinism for any worker count is by construction, not by luck:
//   * each partition's event order is the kernel's own (time, priority,
//     seq) order, executed by exactly one thread per window;
//   * messages are staged in per-source mailboxes with per-source seq
//     counters — worker threads never contend on a shared counter whose
//     interleaving could leak into the order;
//   * the coordinator injects messages between windows, on one thread,
//     in the sorted order above, so destination-side seq numbers (and
//     hence same-timestamp tie-breaks) are identical for --jobs=1 and
//     --jobs=N.
// The sequential reference is therefore literally this class with one
// worker; DESIGN.md §9 gives the full argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "rrsim/des/simulation.h"
#include "rrsim/exec/thread_pool.h"
#include "rrsim/util/validate.h"

namespace rrsim::exec {

/// Owns one des::Simulation per partition plus the barrier protocol that
/// advances them in lockstep windows. Partition callbacks may touch only
/// their own partition's state; cross-partition effects must go through
/// post(). (The rrsim_lint worker-ref-capture rule polices the lambda
/// side of this contract.)
class PdesCoordinator {
 public:
  /// `lookahead` must be positive and finite — it is the protocol's
  /// safety margin, not a tuning knob. `jobs` <= 0 resolves via
  /// resolve_jobs() and is clamped to the partition count; 1 runs every
  /// window on the calling thread.
  PdesCoordinator(std::size_t partitions, double lookahead, int jobs = 0);

  PdesCoordinator(const PdesCoordinator&) = delete;
  PdesCoordinator& operator=(const PdesCoordinator&) = delete;

  std::size_t partitions() const noexcept { return sims_.size(); }
  des::Simulation& partition(std::size_t i) noexcept { return *sims_[i]; }
  double lookahead() const noexcept { return lookahead_; }

  /// Effective worker count (after resolve/clamp).
  int jobs() const noexcept { return jobs_; }

  /// Stages `fn` for execution on partition `dest` at absolute time `t`
  /// with priority `prio`. Must be called from code running on partition
  /// `source` (its window thread), with t >= partition(source).now() +
  /// lookahead() — the conservative contract; violations throw
  /// std::logic_error. Same-partition effects should use the partition's
  /// own schedule_in/schedule_at instead (no latency, no mailbox). `fn`
  /// is the kernel's own non-allocating callback type, so a message moves
  /// from its mailbox into the destination's event slab without a heap
  /// allocation.
  void post(std::size_t source, std::size_t dest, des::Time t,
            des::Priority prio, des::Simulation::Callback fn);

  /// Runs the barrier loop until no events or undelivered messages
  /// remain at time <= `limit`. Mirrors Simulation semantics: with the
  /// default infinite limit this is run(); with a finite limit, events
  /// with time <= limit are dispatched and every partition's now() ends
  /// at `limit` (run_until semantics), leaving later work queued.
  void run(des::Time limit = des::kTimeInfinity);

  /// Barrier windows executed so far (observability for bench/tests).
  std::uint64_t windows() const noexcept { return windows_; }

  /// Cross-partition messages injected so far.
  std::uint64_t messages_delivered() const noexcept { return delivered_; }

  /// Cross-partition messages posted but not yet scheduled into their
  /// destination partition (every mailbox's contents). While this is 0,
  /// same-timestamp events in different partitions cannot be causally
  /// coupled through the coordinator — the PDES independence criterion
  /// tie-break explorers use for DPOR-style pruning. Coordinator-thread
  /// only (jobs == 1 for explorer runs).
  std::uint64_t in_flight_messages() const noexcept {
    std::uint64_t n = 0;
    for (const std::vector<Message>& box : mailboxes_) n += box.size();
    return n;
  }

#if RRSIM_VALIDATE_ENABLED
  /// Corruption hook for the mailbox-oracle death test: warps the next
  /// delivered message's timestamp to before time zero, so the
  /// "delivered into its destination's past" check must trip.
  void debug_corrupt_next_delivery() noexcept { vd_corrupt_delivery_ = true; }
#endif

 private:
  struct Message {
    des::Time time;
    int priority;
    std::uint32_t source;
    std::uint32_t dest;
    std::uint64_t seq;  ///< per-source posting sequence
    des::Simulation::Callback fn;
  };

  /// Sort key of one due message: its delivery order and its place in
  /// its source's mailbox. 32 bytes, so sorting moves no callback.
  struct DueKey {
    des::Time time;
    int priority;
    std::uint32_t source;
    std::uint64_t seq;
    std::uint32_t index;  ///< position in mailboxes_[source]
  };

  /// Schedules every message with time < bound (or <= bound when
  /// `inclusive`) into its destination partition, in (time, priority,
  /// source, seq) order, and drops it from its mailbox. Runs on the
  /// coordinator thread only; the parallel_for_each barrier provides the
  /// happens-before edge from the workers' posts.
  void deliver_messages(des::Time bound, bool inclusive);

  /// run_before(horizon) on every partition — pooled when jobs_ > 1.
  void advance_all(des::Time horizon);

  double lookahead_;
  int jobs_ = 1;
  std::vector<std::unique_ptr<des::Simulation>> sims_;
  /// One mailbox per source: its undelivered messages in post order.
  std::vector<std::vector<Message>> mailboxes_;
  std::vector<std::uint64_t> seq_;  ///< per-source post counter
  std::vector<DueKey> due_;         ///< deliver_messages scratch
  std::unique_ptr<ThreadPool> pool_;
  std::uint64_t windows_ = 0;
  std::uint64_t delivered_ = 0;
#if RRSIM_VALIDATE_ENABLED
  bool vd_corrupt_delivery_ = false;
  des::Time vd_last_horizon_ = 0.0;
#endif
};

}  // namespace rrsim::exec

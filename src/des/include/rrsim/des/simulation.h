// Discrete-event simulation kernel.
//
// Replaces the paper's use of the SimGrid toolkit: the study needs only a
// deterministic event queue with zero-delay messaging (Section 3.1.2 of the
// paper explicitly ignores network overheads), so a small kernel with
// well-defined same-time ordering is behaviourally equivalent and fully
// reproducible.
//
// Event state lives in a slab of pooled slots recycled through a free
// list, and callbacks are stored inline in the slot (util::InlineFunction
// — over-sized captures are a compile error), so scheduling an event
// performs no heap allocation once the slab is warm. Handles carry a
// (slot, generation) pair: recycling a slot bumps its generation, so a
// stale handle can never cancel a later event that reuses its slot.
//
// The pending set is one binary heap over the slab. Each 24-byte entry
// holds the event time, a key packing the priority above the insertion
// sequence (priority << 56 | seq), and the slot index, so ordering costs
// one double and one integer comparison and the heap top is always the
// earliest event under the (time, priority, sequence) total order. An
// entry is live iff its slot still carries the entry's seq: cancelling or
// firing an event retires the slot at once and leaves the entry behind,
// to be skipped when it reaches the top. When cancelled entries outnumber
// the live events (the heap exceeds 2 x live + 64), schedule_at drops them
// all in one pass and re-heapifies, so the heap stays O(live events) under
// any amount of cancel-and-reschedule churn.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rrsim/util/inline_fn.h"
#include "rrsim/util/validate.h"

namespace rrsim::des {

/// Simulated time, in seconds since the start of the simulation.
using Time = double;

/// A very large time used as "never"/horizon sentinel.
inline constexpr Time kTimeInfinity = 1e300;

/// Event priorities break ties between events scheduled at the same
/// timestamp: lower runs first. The simulator uses these bands to make
/// same-instant interactions deterministic (e.g. a job completion frees
/// nodes before the scheduling pass triggered by a new arrival sees them).
enum class Priority : int {
  kCompletion = 0,  ///< job completions (free resources first)
  kCancel = 1,      ///< replica cancellations
  kArrival = 2,     ///< job arrivals / submissions
  kControl = 3,     ///< probes, bookkeeping, end-of-experiment markers
};

/// Inline capture budget for event callbacks. Sized for the largest
/// schedule-site capture in the tree (an arrival closure carrying a Job
/// by value plus two references) with headroom; raising it trades slab
/// memory for capture room.
inline constexpr std::size_t kCallbackCapacity = 112;

/// Tag for events not attributed to any cluster/partition entity.
/// Schedule sites pass the cluster an event acts on; untagged events are
/// treated as touching everything (conservatively dependent) by schedule
/// explorers.
inline constexpr std::uint32_t kNoEventTag = 0xffffffffu;

/// One member of a same-(time, priority) tie group, in insertion order.
struct TieEvent {
  std::uint64_t seq;  ///< global insertion sequence (unique within a run)
  std::uint32_t tag;  ///< cluster tag from the schedule site, or kNoEventTag
};

/// A same-timestamp/same-priority dispatch group offered to a
/// TieBreakPolicy. `members` lists the live events sharing the minimal
/// (time, priority) pair, ascending by seq; index 0 is what the default
/// kernel would dispatch next.
struct TieGroup {
  std::uint64_t id;         ///< dense per-run group ordinal (singletons too)
  std::uint32_t partition;  ///< kernel instance (PDES partition index, else 0)
  Time time;
  int priority;
  const TieEvent* members;
  std::size_t size;  ///< >= 1
};

/// Pluggable tie-break hook on the event queue. When installed (see
/// Simulation::set_tie_break_policy) the kernel exposes each
/// same-(time, priority) event group and lets the policy permute its
/// dispatch order without perturbing anything else — timestamps,
/// priorities, callbacks, and the slab/handle machinery are untouched.
/// With no policy installed the kernel keeps the default seq order on the
/// fast path, bit-identical to the historical behaviour.
///
/// A maximal run of consecutive same-(time, priority) dispatches forms
/// one group. pick() is called once per dispatch while a group drains;
/// the member list shrinks as events fire and may grow when callbacks
/// schedule new events at the group's (time, priority). Returning 0 from
/// every call reproduces the default order exactly.
class TieBreakPolicy {
 public:
  virtual ~TieBreakPolicy() = default;

  /// Index (into group.members) of the event to dispatch next.
  virtual std::size_t pick(const TieGroup& group) = 0;

  /// Optional coupling metadata hook: before a run, the experiment layer
  /// hands the policy a probe that reports the number of live
  /// cross-cluster couplings (replica sets spanning >= 2 clusters on the
  /// zero-delay kernel; undelivered coordinator messages in PDES mode).
  /// Schedule explorers sample it per tie group to prove events on
  /// disjoint clusters independent. The default implementation ignores
  /// the probe.
  virtual void attach_coupling_probe(std::uint32_t partition,
                                     std::function<std::uint64_t()> probe);
};

/// Deterministic event-driven simulation engine.
///
/// Events are dispatched in (time, priority, insertion-sequence) order, so
/// runs with identical inputs produce identical traces on any platform.
/// Callbacks may schedule and cancel further events freely, including at
/// the current timestamp (same-time events inserted during dispatch run in
/// the same pass, after already-queued events of equal time/priority).
class Simulation {
 public:
  /// Non-allocating callback: captures live inside the event slot. A
  /// capture larger than kCallbackCapacity is rejected at compile time —
  /// capture pointers or indices instead of large objects.
  using Callback = util::InlineFunction<kCallbackCapacity>;

  /// Handle to a scheduled event, used to cancel it. Default-constructed
  /// handles are inert. Handles are trivially cheap to copy (a pointer
  /// plus a generation-checked slot index) and become inert once their
  /// event fires or is cancelled — but must not be used after the owning
  /// Simulation is destroyed.
  class EventHandle {
   public:
    EventHandle() = default;

    /// Cancels the event if it has not yet fired. Returns true if this
    /// call performed the cancellation.
    bool cancel() noexcept;

    /// True if the event is still queued (not fired, not cancelled).
    bool pending() const noexcept;

   private:
    friend class Simulation;
    EventHandle(Simulation* sim, std::uint32_t slot, std::uint64_t gen)
        : sim_(sim), slot_(slot), gen_(gen) {}
    Simulation* sim_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint64_t gen_ = 0;
  };

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time. Starts at 0.
  Time now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `t` (must be >= now()).
  /// Throws std::invalid_argument if `t` is in the past or not finite.
  /// `tag` labels the cluster the event acts on (kNoEventTag = global);
  /// it is metadata for tie-break policies only and never affects the
  /// dispatch order.
  EventHandle schedule_at(Time t, Callback cb,
                          Priority prio = Priority::kControl,
                          std::uint32_t tag = kNoEventTag);

  /// Schedules `cb` after a delay of `dt` seconds (must be >= 0).
  EventHandle schedule_in(Time dt, Callback cb,
                          Priority prio = Priority::kControl,
                          std::uint32_t tag = kNoEventTag);

  /// Installs (or, with nullptr, removes) a tie-break policy. The policy
  /// is not owned and must outlive the run; `partition` is echoed back in
  /// every TieGroup (PDES partition index; 0 for the classic kernel).
  /// Install before running: swapping policies mid-group is undefined.
  /// reset() uninstalls the policy.
  void set_tie_break_policy(TieBreakPolicy* policy,
                            std::uint32_t partition = 0) noexcept {
    policy_ = policy;
    policy_partition_ = partition;
  }

  /// The installed tie-break policy, or nullptr (default seq order).
  TieBreakPolicy* tie_break_policy() const noexcept { return policy_; }

  /// Number of tie groups opened so far under an installed policy (dense
  /// ordinals, singleton groups included); 0 on the default path.
  std::uint64_t tie_groups() const noexcept { return tie_groups_; }

  /// Dispatches the next event, if any. Returns false when the queue is
  /// empty (cancelled events are skipped and do not count).
  bool step();

  /// Runs until no events remain.
  void run();

  /// Runs all events with time <= `t`, then sets now() to `t` (if the
  /// queue empties earlier, time still advances to `t`).
  void run_until(Time t);

  /// Runs all events with time strictly < `t`, then sets now() to `t`.
  /// This is the PDES window primitive: a partition advances through
  /// [now, t) and stops exactly at the horizon, so an event scheduled at
  /// `t` itself (e.g. a message injected at the horizon) still dispatches
  /// in a later window under the same (time, priority, seq) order.
  void run_before(Time t);

  /// Timestamp of the earliest live event, or kTimeInfinity when none
  /// remain. May drop stale (cancelled) entries off the heap top, but
  /// dispatches nothing and never changes the observable dispatch order.
  Time next_event_time();

  /// Number of live (non-cancelled) events still queued.
  std::size_t pending_events() const noexcept { return live_; }

  /// Total events dispatched so far.
  std::uint64_t dispatched() const noexcept { return dispatched_; }

  /// Size of the event slab (live + recycled slots); observability for
  /// tests and benchmarks, not part of the simulation semantics.
  std::size_t pool_capacity() const noexcept { return slots_.size(); }

  /// Returns the simulation to its initial state — time 0, no events, no
  /// dispatch history — while keeping the event slab, free list and heap
  /// storage allocated, so a reset simulation schedules its first events
  /// with warm arenas. Every outstanding EventHandle becomes inert (each
  /// slot's generation is bumped), so a stale handle can neither cancel
  /// nor report pending for events of the next run. A reset simulation is
  /// indistinguishable, event-order-wise, from a freshly constructed one.
  void reset() noexcept;

#if RRSIM_VALIDATE_ENABLED
  /// Hash of the semantic simulation state (time, counters, queue
  /// occupancy) — deliberately excludes arena capacities, so a reset
  /// simulation with a warm slab fingerprints equal to a fresh one.
  /// reset() checks exactly that; a member added without reset() coverage
  /// shows up as a fingerprint mismatch once it is folded in here.
  std::uint64_t debug_fingerprint() const noexcept;

  /// Corruption hook for the oracle death tests: primes the dispatch
  /// watermark as if an event later than everything still queued had
  /// already fired, so the next step() must trip the order oracle.
  void debug_force_dispatch_watermark(Time t) noexcept {
    vd_have_last_ = true;
    vd_last_time_ = t;
    vd_last_prio_ = static_cast<int>(Priority::kControl);
    vd_last_seq_ = ~std::uint64_t{0};
    vd_last_epoch_ = ~std::uint64_t{0};
  }

  /// Corruption hook: makes the next reset() "forget" to restore
  /// next_seq_, emulating a member added without reset coverage.
  void debug_leak_state_on_reset(bool leak) noexcept {
    vd_leak_on_reset_ = leak;
  }
#endif

 private:
  /// Heap-entry key layout: the priority sits above a 56-bit insertion
  /// sequence, so one integer compare orders both axes (at 20 M events/s,
  /// 2^56 events take over a century).
  static constexpr int kPriorityShift = 56;
  static constexpr std::uint64_t kSeqMask =
      (std::uint64_t{1} << kPriorityShift) - 1;
  /// Seq of a slot that holds no event; no heap entry ever carries it.
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};
  /// The heap may hold this many cancelled entries beyond one per live
  /// event before schedule_at purges them, so small populations never
  /// re-heapify.
  static constexpr std::size_t kPurgeSlack = 64;

  // One pooled event. `generation` counts retirements of the slot: a
  // handle created with generation g is live iff the slot still holds
  // generation g. `seq` is the queued event's insertion sequence (kNoSeq
  // while the slot is free), so a heap entry is live iff its slot still
  // carries the entry's seq. Cancelling or firing retires the slot at
  // once (bumps the generation, clears the seq, returns the index to the
  // free list), so the slot is reusable immediately — the pooled-slab
  // recycling tests pin this.
  struct Slot {
    Callback callback;
    std::uint64_t generation = 0;
    std::uint64_t seq = kNoSeq;
    std::uint32_t tag = kNoEventTag;
#if RRSIM_VALIDATE_ENABLED
    /// Dispatch count at schedule time. The order oracle compares the
    /// full (time, priority, seq) triple only against events that were
    /// already queued at the previous pop; an event inserted *during*
    /// that dispatch (epoch >= the pop's dispatch number) may legally
    /// carry the same time with a lower priority.
    std::uint64_t epoch = 0;
#endif
  };
  struct Entry {
    Time time;
    std::uint64_t key;  ///< priority << kPriorityShift | seq
    std::uint32_t slot;
  };
  struct Compare {
    // std::push_heap/pop_heap build a max-heap; invert so the earliest
    // (time, priority, seq) triple is dispatched first. The heap lives in
    // a plain vector (not std::priority_queue) so the purge can filter it
    // in place and reset() can clear it without surrendering capacity.
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.key > b.key;
    }
  };

  static int priority_of(const Entry& e) noexcept {
    return static_cast<int>(e.key >> kPriorityShift);
  }
  static std::uint64_t seq_of(const Entry& e) noexcept {
    return e.key & kSeqMask;
  }

  /// True if handle coordinates still refer to a queued event.
  bool is_live(std::uint32_t slot, std::uint64_t gen) const noexcept {
    return slot < slots_.size() && slots_[slot].generation == gen;
  }

  /// True if a heap entry's event is still queued (not fired, cancelled).
  bool is_live(const Entry& e) const noexcept {
    return slots_[e.slot].seq == seq_of(e);
  }

  /// Retires a live slot: destroys its callback (callers that dispatch
  /// move it out first), bumps the generation, recycles the index.
  void retire(std::uint32_t slot) noexcept;

  /// Heap helpers over heap_ (min-first per Compare).
  void heap_push(const Entry& e);
  void heap_pop() noexcept;

  /// Pops cancelled entries off the heap top. Returns the live top (the
  /// earliest queued event), or nullptr when nothing is queued.
  const Entry* live_top() noexcept;

  /// Drops every cancelled entry and re-heapifies.
  void purge_cancelled();

  /// Runs the event in `slot`, due at `t`: retires the slot before the
  /// callback runs, so the callback may reuse it.
  void fire(std::uint32_t slot, Time t);

  /// Dispatch path while a TieBreakPolicy is installed: gathers the
  /// minimal-(time, priority) cohort and lets the policy choose.
  bool step_policy();

  /// Appends the live members of the open group found in the subtree
  /// rooted at heap_[i] to group_members_.
  void gather_cohort(std::size_t i);

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;

  // Tie-break policy hook (nullptr = default seq-order fast path). The
  // group trackers delimit maximal runs of same-(time, priority)
  // dispatches; the scratch vectors keep cohort gathering allocation-free
  // after the first group.
  TieBreakPolicy* policy_ = nullptr;
  std::uint32_t policy_partition_ = 0;
  std::uint64_t tie_groups_ = 0;
  bool group_open_ = false;
  Time group_time_ = 0.0;
  int group_prio_ = 0;
  struct GroupMember {
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t tag;
  };
  std::vector<GroupMember> group_members_;
  std::vector<TieEvent> group_scratch_;

#if RRSIM_VALIDATE_ENABLED
  // Dispatch-order oracle watermark: coordinates of the previous pop.
  bool vd_have_last_ = false;
  bool vd_leak_on_reset_ = false;
  Time vd_last_time_ = 0.0;
  int vd_last_prio_ = 0;
  std::uint64_t vd_last_seq_ = 0;
  std::uint64_t vd_last_epoch_ = 0;
#endif
};

}  // namespace rrsim::des

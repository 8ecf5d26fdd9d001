// The pending queue EASY and FCFS share: jobs in submission order, with
// O(1) removal of any job by id.
//
// Redundant requests make queues cancel-heavy. A grid job with redundancy
// degree N cancels up to N - 1 replicas when one starts, and most of those
// cancels land behind the head of a queue that is hundreds deep in the
// overloaded regimes. The queue therefore holds three things:
//   * an order-preserving vector of job slots;
//   * a parallel vector of node counts, where a removed slot becomes a
//     tombstone (kTombstone, which never fits);
//   * an id -> slot index over the pending jobs only.
// A removal is one index lookup plus a tombstone, and EASY's backfill
// finds its next candidate by scanning the 4-byte node array instead of
// 56-byte jobs.
//
// Slot numbers stay valid until the next push_back(), the only place
// compaction runs, so a scheduling pass may hold them across starts,
// declines and removals.
#pragma once

#include <climits>
#include <cstdint>
#include <utility>
#include <vector>

#include "rrsim/sched/job.h"
#include "rrsim/util/flat_map.h"
#include "rrsim/util/validate.h"

namespace rrsim::sched {

/// Pending jobs in FCFS order with tombstoned removal by id.
class PendingQueue {
 public:
  using Slot = std::uint32_t;

  /// Node count of a removed slot: larger than any `free` that
  /// next_fitting() accepts, so a tombstone never fits.
  static constexpr int kTombstone = INT_MAX;

  std::size_t size() const noexcept { return live_; }
  bool empty() const noexcept { return live_ == 0; }

  /// The first live slot, or end() when the queue is empty.
  Slot head() const noexcept { return head_; }
  /// One past the last slot.
  Slot end() const noexcept { return static_cast<Slot>(nodes_.size()); }

  /// The job in live slot `s`.
  const Job& job(Slot s) const noexcept { return jobs_[s]; }
  /// Nodes the job in slot `s` needs; kTombstone once it is removed.
  int nodes(Slot s) const noexcept { return nodes_[s]; }

  /// The first live slot at or after `from` whose job needs at most `free`
  /// nodes, or end(). Visits slots in queue order. Requires
  /// `free < kTombstone`; EASY asks only behind a head that does not fit,
  /// so `free` is below that head's node count.
  Slot next_fitting(Slot from, int free) const noexcept {
    const Slot last = end();
    while (from < last && nodes_[from] > free) ++from;
    return from;
  }

  /// The slot holding pending job `id`, or end() if the id is not queued.
  Slot slot_of(JobId id) const noexcept {
    const Slot* s = index_.find(id);
    return s != nullptr ? *s : end();
  }

  /// Appends `job` at the tail. An empty queue first drops back to zero
  /// slots; otherwise the slots are compacted once tombstones outnumber
  /// half the live jobs. Invalidates every slot number held by a caller.
  void push_back(Job job) {
    if (live_ == 0) {
      jobs_.clear();
      nodes_.clear();
      head_ = 0;
    } else if (2 * (nodes_.size() - live_) > live_) {
      compact();
    }
    const bool inserted = index_.try_emplace(job.id, end()).inserted;
    RRSIM_CHECK(inserted, "pending queue: id queued twice");
    (void)inserted;
    nodes_.push_back(job.nodes);
    jobs_.push_back(std::move(job));
    ++live_;
  }

  /// Removes and returns the job in live slot `s`, leaving a tombstone.
  /// Taking the head advances head() past tombstones.
  Job take(Slot s) {
    RRSIM_CHECK(s < end() && nodes_[s] != kTombstone,
                "pending queue: take of a slot that is not live");
    Job job = std::move(jobs_[s]);
    nodes_[s] = kTombstone;
    index_.erase(job.id);
    --live_;
    if (s == head_) {
      const Slot last = end();
      do {
        ++head_;
      } while (head_ < last && nodes_[head_] == kTombstone);
    }
    return job;
  }

  /// Drops every job, keeping the storage allocated.
  void clear() noexcept {
    jobs_.clear();
    nodes_.clear();
    index_.clear();
    head_ = 0;
    live_ = 0;
  }

  /// Bytes of backing storage held (capacity-based high-water footprint).
  std::size_t memory_bytes() const noexcept {
    return jobs_.capacity() * sizeof(Job) + nodes_.capacity() * sizeof(int) +
           index_.memory_bytes();
  }

#if RRSIM_VALIDATE_ENABLED
  /// Full sweep: live count, head position, and the index as an exact
  /// bijection between pending ids and live slots.
  void debug_validate() const {
    std::size_t live = 0;
    for (Slot s = 0; s < end(); ++s) {
      const Slot* indexed = index_.find(jobs_[s].id);
      if (nodes_[s] == kTombstone) {
        RRSIM_CHECK(indexed == nullptr || *indexed != s,
                    "pending queue: a tombstone has an index entry");
        continue;
      }
      RRSIM_CHECK(s >= head_, "pending queue: live slot before head()");
      RRSIM_CHECK(nodes_[s] == jobs_[s].nodes,
                  "pending queue: node count disagrees with its job");
      RRSIM_CHECK(indexed != nullptr && *indexed == s,
                  "pending queue: a live slot's id does not map back to it");
      ++live;
    }
    RRSIM_CHECK(live == live_, "pending queue: live count is wrong");
    RRSIM_CHECK(index_.size() == live_,
                "pending queue: index size disagrees with the live count");
    RRSIM_CHECK(head_ == end() ? live_ == 0 : nodes_[head_] != kTombstone,
                "pending queue: head() is neither live nor end()");
  }

  /// Corruption hook for the oracle death tests: points the head's index
  /// entry one slot past it, as a compaction that skipped the index
  /// rewrite would.
  void debug_corrupt_index() {
    if (!empty()) index_.at(jobs_[head_].id) = head_ + 1;
  }
#endif

 private:
  /// Moves the live jobs to the front, in order, and rewrites their index
  /// entries. Every slot before head_ is a tombstone, so the walk starts
  /// there.
  void compact() {
    Slot out = 0;
    for (Slot s = head_; s < end(); ++s) {
      if (nodes_[s] == kTombstone) continue;
      if (out != s) {
        jobs_[out] = std::move(jobs_[s]);
        nodes_[out] = nodes_[s];
        index_.at(jobs_[out].id) = out;
      }
      ++out;
    }
    jobs_.resize(out);
    nodes_.resize(out);
    head_ = 0;
  }

  std::vector<Job> jobs_;
  std::vector<int> nodes_;  ///< parallel to jobs_; kTombstone once removed
  util::FlatHashMap<JobId, Slot> index_;  ///< pending ids only
  Slot head_ = 0;
  std::size_t live_ = 0;
};

}  // namespace rrsim::sched

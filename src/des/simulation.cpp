#include "rrsim/des/simulation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace rrsim::des {

bool Simulation::EventHandle::cancel() noexcept {
  if (sim_ == nullptr || !sim_->is_live(slot_, gen_)) return false;
  // The heap entry stays behind and is skipped once it reaches the top
  // (or dropped by the next purge); the slot itself retires at once.
  sim_->retire(slot_);  // drops the callback's captures promptly
  if (sim_->live_ > 0) --sim_->live_;
  sim_ = nullptr;
  return true;
}

bool Simulation::EventHandle::pending() const noexcept {
  return sim_ != nullptr && sim_->is_live(slot_, gen_);
}

void Simulation::retire(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.callback = nullptr;  // drop captured resources; cheap if already moved
  ++s.generation;
  s.seq = kNoSeq;
  free_slots_.push_back(slot);
}

void Simulation::heap_push(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Compare{});
}

void Simulation::heap_pop() noexcept {
  std::pop_heap(heap_.begin(), heap_.end(), Compare{});
  heap_.pop_back();
}

const Simulation::Entry* Simulation::live_top() noexcept {
  while (!heap_.empty()) {
    if (is_live(heap_.front())) return &heap_.front();
    heap_pop();
  }
  return nullptr;
}

void Simulation::purge_cancelled() {
  std::erase_if(heap_, [this](const Entry& e) { return !is_live(e); });
  std::make_heap(heap_.begin(), heap_.end(), Compare{});
}

Simulation::EventHandle Simulation::schedule_at(Time t, Callback cb,
                                                Priority prio,
                                                std::uint32_t tag) {
  if (!(t >= now_) || !std::isfinite(t)) {
    throw std::invalid_argument("schedule_at: time must be finite and >= now");
  }
  if (!cb) throw std::invalid_argument("schedule_at: empty callback");
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() >= std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("schedule_at: event pool exhausted");
    }
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.callback = std::move(cb);
  slot.seq = next_seq_++;
  slot.tag = tag;
#if RRSIM_VALIDATE_ENABLED
  slot.epoch = dispatched_;
#endif
  // Cancelled entries linger until they reach the top, so a caller that
  // keeps cancelling and rescheduling one event (CBF's wake-up) would grow
  // the heap without bound; drop them all once they outnumber the live
  // events. A purge removes more entries than it keeps, so it costs O(1)
  // amortized per cancelled entry.
  if (heap_.size() > 2 * live_ + kPurgeSlack) purge_cancelled();
  const std::uint64_t key =
      (std::uint64_t{static_cast<std::uint8_t>(prio)} << kPriorityShift) |
      slot.seq;
  heap_push(Entry{t, key, index});
  ++live_;
  return EventHandle(this, index, slot.generation);
}

Simulation::EventHandle Simulation::schedule_in(Time dt, Callback cb,
                                                Priority prio,
                                                std::uint32_t tag) {
  if (!(dt >= 0.0)) throw std::invalid_argument("schedule_in: negative delay");
  return schedule_at(now_ + dt, std::move(cb), prio, tag);
}

void TieBreakPolicy::attach_coupling_probe(
    std::uint32_t partition, std::function<std::uint64_t()> probe) {
  (void)partition;
  (void)probe;
}

void Simulation::fire(std::uint32_t slot, Time t) {
  now_ = t;
  // Move the callback out (single move-construction — cheaper than going
  // through retire()'s assignment) and retire the slot *before* running
  // it, so the callback can schedule new events (possibly reusing this
  // slot) and outstanding handles read "fired".
  Callback cb(std::move(slots_[slot].callback));
  retire(slot);
  if (live_ > 0) --live_;
  ++dispatched_;
  cb();
}

void Simulation::gather_cohort(std::size_t i) {
  // A heap parent never sorts after its child, so every entry sharing the
  // root's (time, priority) has only such entries above it: the cohort,
  // cancelled entries included, is a subtree at the root.
  if (i >= heap_.size()) return;
  const Entry& e = heap_[i];
  if (e.time != group_time_ || priority_of(e) != group_prio_) return;
  if (is_live(e)) {
    group_members_.push_back(
        GroupMember{seq_of(e), e.slot, slots_[e.slot].tag});
  }
  gather_cohort(2 * i + 1);
  gather_cohort(2 * i + 2);
}

bool Simulation::step_policy() {
  const Entry* top = live_top();
  if (top == nullptr) return false;
  const Time t = top->time;
  const int prio = priority_of(*top);
  // Group accounting: each maximal run of same-(time, priority)
  // dispatches is one group; ordinals are dense over the run (singleton
  // groups included) so a replay driver can address a group stably.
  if (!group_open_ || t != group_time_ || prio != group_prio_) {
    group_open_ = true;
    group_time_ = t;
    group_prio_ = prio;
    ++tie_groups_;
  }
  group_members_.clear();
  gather_cohort(0);
  std::sort(group_members_.begin(), group_members_.end(),
            [](const GroupMember& a, const GroupMember& b) {
              return a.seq < b.seq;  // seqs are unique: a total order
            });
  std::size_t choice = 0;
  if (group_members_.size() > 1) {
    group_scratch_.clear();
    for (const GroupMember& m : group_members_) {
      group_scratch_.push_back(TieEvent{m.seq, m.tag});
    }
    const TieGroup group{tie_groups_ - 1, policy_partition_, t, prio,
                         group_scratch_.data(), group_scratch_.size()};
    choice = policy_->pick(group);
    if (choice >= group_members_.size()) {
      throw std::logic_error("tie-break policy picked an index out of range");
    }
  }
  const GroupMember chosen = group_members_[choice];
#if RRSIM_VALIDATE_ENABLED
  // Relaxed dispatch-order oracle: a policy may permute seq order inside
  // a (time, priority) group, so only the (time, priority) axes bind for
  // events queued across a pop; the time axis is unconditional.
  RRSIM_CHECK(t >= now_, "event dispatched before now()");
  if (vd_have_last_) {
    RRSIM_CHECK(t >= vd_last_time_, "dispatch time went backwards");
    if (slots_[chosen.slot].epoch < vd_last_epoch_) {
      RRSIM_CHECK(t > vd_last_time_ || prio >= vd_last_prio_,
                  "(time, priority) dispatch order violated under a "
                  "tie-break policy");
    }
  }
  vd_have_last_ = true;
  vd_last_time_ = t;
  vd_last_prio_ = prio;
  vd_last_seq_ = chosen.seq;
  vd_last_epoch_ = dispatched_ + 1;
#endif
  // Dispatch the chosen member directly off its slot. Its heap entry (if
  // it was not the top) stays behind and is skipped like a cancelled one.
  fire(chosen.slot, t);
  return true;
}

bool Simulation::step() {
  if (policy_ != nullptr) return step_policy();
  const Entry* top = live_top();
  if (top == nullptr) return false;
  const Entry entry = *top;
  heap_pop();
#if RRSIM_VALIDATE_ENABLED
  // Dispatch-order oracle. Time never goes backwards; the full
  // (time, priority, seq) order additionally holds against any event
  // that was already queued at the previous pop (an event inserted
  // during that dispatch may legally share its time with a lower
  // priority, so only the time axis binds for those).
  const int prio = priority_of(entry);
  const std::uint64_t seq = seq_of(entry);
  RRSIM_CHECK(entry.time >= now_, "event dispatched before now()");
  if (vd_have_last_) {
    RRSIM_CHECK(entry.time >= vd_last_time_, "dispatch time went backwards");
    if (slots_[entry.slot].epoch < vd_last_epoch_) {
      const bool after =
          entry.time > vd_last_time_ || prio > vd_last_prio_ ||
          (prio == vd_last_prio_ && seq > vd_last_seq_);
      RRSIM_CHECK(after,
                  "(time, priority, seq) dispatch order violated for "
                  "events queued across a pop");
    }
  }
  vd_have_last_ = true;
  vd_last_time_ = entry.time;
  vd_last_prio_ = prio;
  vd_last_seq_ = seq;
  vd_last_epoch_ = dispatched_ + 1;
#endif
  fire(entry.slot, entry.time);
  return true;
}

void Simulation::run() {
  while (step()) {
  }
}

void Simulation::run_until(Time t) {
  if (t < now_) throw std::invalid_argument("run_until: time in the past");
  while (const Entry* top = live_top()) {
    if (top->time > t) break;
    step();
  }
  now_ = t;
}

void Simulation::run_before(Time t) {
  if (t < now_) throw std::invalid_argument("run_before: time in the past");
  while (const Entry* top = live_top()) {
    if (!(top->time < t)) break;
    step();
  }
  if (t > now_) now_ = t;
}

Time Simulation::next_event_time() {
  const Entry* top = live_top();
  return top != nullptr ? top->time : kTimeInfinity;
}

#if RRSIM_VALIDATE_ENABLED
std::uint64_t Simulation::debug_fingerprint() const noexcept {
  // FNV-1a over the semantic state. Arena capacities (slab size, heap /
  // free-list storage) are deliberately excluded: they are what
  // reset() keeps warm. What must match a fresh simulation is everything
  // observable through the public API plus queue occupancy.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto mix_time = [&mix](Time t) noexcept {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(Time));
    __builtin_memcpy(&bits, &t, sizeof(bits));
    mix(bits);
  };
  mix_time(now_);
  mix(next_seq_);
  mix(dispatched_);
  mix(live_);
  mix(heap_.size());
  mix(slots_.size() - free_slots_.size());  // slots not on the free list
  std::uint64_t busy = 0;
  for (const Slot& s : slots_) {
    if (s.seq != kNoSeq) ++busy;
  }
  mix(busy);
  mix(policy_ == nullptr ? 0 : 1);
  mix(policy_partition_);
  mix(tie_groups_);
  mix(group_open_ ? 1 : 0);
  mix(vd_have_last_ ? 1 : 0);
  return h;
}
#endif

void Simulation::reset() noexcept {
  now_ = 0.0;
  next_seq_ = 0;
  dispatched_ = 0;
  live_ = 0;
  heap_.clear();
  // The policy is per-run configuration: clearing it keeps a pooled
  // workspace simulation from calling into a policy object the previous
  // run's driver may already have destroyed.
  policy_ = nullptr;
  policy_partition_ = 0;
  tie_groups_ = 0;
  group_open_ = false;
  group_time_ = 0.0;
  group_prio_ = 0;
  group_members_.clear();
  group_scratch_.clear();
  // Retire every slot: destroy lingering callbacks (a truncated run leaves
  // events queued) and bump generations so handles from the previous run
  // are inert. The free list is rebuilt highest-index-first so the next
  // run allocates slot 0, 1, 2, ... exactly like a fresh slab would.
  free_slots_.clear();
  free_slots_.reserve(slots_.size());
  for (std::size_t i = slots_.size(); i-- > 0;) {
    Slot& s = slots_[i];
    s.callback = nullptr;
    ++s.generation;
    s.seq = kNoSeq;
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
#if RRSIM_VALIDATE_ENABLED
  vd_have_last_ = false;
  if (vd_leak_on_reset_) next_seq_ = 1;  // simulated missed-member bug
  // Reset-coverage oracle: a reset simulation must fingerprint equal to
  // a freshly constructed one. A member added to Simulation but not to
  // reset() (and folded into debug_fingerprint()) trips here.
  RRSIM_CHECK(debug_fingerprint() == Simulation().debug_fingerprint(),
              "reset() state differs from a freshly constructed Simulation");
#endif
}

}  // namespace rrsim::des

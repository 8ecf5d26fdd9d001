#include "rrsim/sched/cbf.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rrsim::sched {

#if RRSIM_VALIDATE_ENABLED
void CbfScheduler::validate_index() const {
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    RRSIM_CHECK(queue_[i - 1].job.submit_time <= queue_[i].job.submit_time,
                "cbf: queue_ no longer in submission (FCFS) order");
  }
  running_end_.for_each([this](const JobId& id, const Time& end) {
    RRSIM_CHECK(running_jobs().find(id) != running_jobs().end(),
                "cbf: running_end_ keeps a footprint for a job that is "
                "not running");
    RRSIM_CHECK(end > 0.0, "cbf: non-positive stored footprint end");
  });
}

void CbfScheduler::debug_validate() const {
  ClusterScheduler::debug_validate();
  validate_index();
}
#endif

void CbfScheduler::handle_submit(Job job) {
  const Time now = sim_.now();
  // GC: every reservation whose interval expired leaves dead breakpoints
  // behind; submissions are the steady pulse that sweeps them.
  profile_.prune_before(now);
  const Time s =
      profile_.earliest_start(now, job.nodes, job.requested_time);
  profile_.reserve(s, job.requested_time, job.nodes);
  record_prediction(job.id, s);  // the Section 5 predictor
  queue_.push_back(Entry{std::move(job), s});
  dispatch_ready();
#if RRSIM_VALIDATE_ENABLED
  validate_index();
#endif
}

Job CbfScheduler::handle_cancel(JobId id) {
  const std::size_t k = position_of(id);
  if (k == queue_.size()) {
    throw std::logic_error("cbf: cancel of non-pending job");
  }
  Job job = std::move(queue_[k].job);
  const Time r = queue_[k].reserved_start;
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(k));
  if (incremental_base_ok()) {
    // Freed slot: drop the reservation in place and pull the suffix
    // earlier. The prefix cannot move (its slots depend only on the
    // running set and earlier positions), so this equals a rebuild.
    release_reservation(r, job.requested_time, job.nodes);
    compress_from(k);
  } else {
    rebuild_profile();
  }
  if (self_check_) verify_against_rebuild();
  dispatch_ready();
#if RRSIM_VALIDATE_ENABLED
  validate_index();
#endif
  return job;
}

void CbfScheduler::handle_completion(const Job& job) {
  Time stored_end = 0.0;
  if (const Time* se = running_end_.find(job.id)) {
    stored_end = *se;
    running_end_.erase(job.id);
  }
  const bool early =
      job.finish_time < job.start_time + job.requested_time;
  if (early) {
    if (incremental_base_ok()) {
      // Release the unused tail of the conservative footprint, then pull
      // every reservation as early as possible.
      const Time now = sim_.now();
      if (stored_end > now) {
        profile_.release_until(now, stored_end, job.nodes);
      }
      compress_from(0);
    } else {
      rebuild_profile();
    }
    if (self_check_) verify_against_rebuild();
  }
  dispatch_ready();
#if RRSIM_VALIDATE_ENABLED
  validate_index();
#endif
}

std::optional<Time> CbfScheduler::current_reservation(JobId id) const {
  const std::size_t k = position_of(id);
  if (k == queue_.size()) return std::nullopt;
  return queue_[k].reserved_start;
}

std::size_t CbfScheduler::position_of(JobId id) const {
  std::size_t k = 0;
  while (k < queue_.size() && queue_[k].job.id != id) ++k;
  return k;
}

void CbfScheduler::release_reservation(Time r, Time req, int nodes) {
  const Time now = sim_.now();
  if (r >= now) {
    profile_.release(r, req, nodes);
    return;
  }
  // Reservation already partially in the past (a due-but-blocked job):
  // only its future part is releasable. The end boundary must be the
  // exact breakpoint reserve() created, hence the absolute-interval form.
  const Time end = r + req;
  if (end > now) profile_.release_until(now, end, nodes);
}

bool CbfScheduler::incremental_base_ok() const {
  const Time now = sim_.now();
  for (const auto& [id, job] : running_jobs()) {
    const Time end = job.start_time + job.requested_time;
    if (end <= now) continue;  // footprint contributes nothing ahead
    const Time* stored = running_end_.find(id);
    if (stored == nullptr || *stored != end) return false;
    if (now + (end - now) != end) return false;
  }
  return true;
}

void CbfScheduler::compress_from(std::size_t from_pos) {
  count_pass();
  const Time now = sim_.now();
  // Release the whole suffix before re-reserving any of it: re-reserving
  // one job at a time around still-standing later reservations is NOT
  // equivalent to a rebuild (a later job can grab the freed slot first).
  for (std::size_t i = from_pos; i < queue_.size(); ++i) {
    const Entry& e = queue_[i];
    release_reservation(e.reserved_start, e.job.requested_time,
                        e.job.nodes);
  }
  for (std::size_t i = from_pos; i < queue_.size(); ++i) {
    Entry& e = queue_[i];
    const Time s =
        profile_.earliest_start(now, e.job.nodes, e.job.requested_time);
    profile_.reserve(s, e.job.requested_time, e.job.nodes);
    e.reserved_start = s;
  }
}

void CbfScheduler::rebuild_profile() {
  count_pass();
  ++rebuilds_;
  const Time now = sim_.now();
  profile_.reset();
  running_end_.clear();
  for (const auto& [id, job] : running_jobs()) {
    const Time end = job.start_time + job.requested_time;
    if (end > now) {
      profile_.reserve(now, end - now, job.nodes);
      // The stored breakpoint is now + (end - now), which is where the
      // reserve above actually put it — not necessarily `end`.
      running_end_[id] = now + (end - now);
    }
  }
  for (Entry& e : queue_) {
    const Time s =
        profile_.earliest_start(now, e.job.nodes, e.job.requested_time);
    profile_.reserve(s, e.job.requested_time, e.job.nodes);
    e.reserved_start = s;
  }
}

void CbfScheduler::dispatch_ready() {
  count_pass();
  const Time now = sim_.now();
  for (;;) {
    // The first job in queue order whose reservation has arrived and
    // whose nodes are free starts; then the scan begins again at the head,
    // since a decline's compression moves reservations and a start's
    // callbacks may re-enter. A due job whose nodes are still busy needs
    // no wake-up: the same-timestamp completion that frees them (equal-
    // time completions drain one at a time) re-enters dispatch_ready. A
    // scan that starts nothing has seen every future reservation.
    Time next = des::kTimeInfinity;
    std::size_t k = 0;
    for (; k < queue_.size(); ++k) {
      const Entry& e = queue_[k];
      if (e.reserved_start > now) {
        next = std::min(next, e.reserved_start);
      } else if (e.job.nodes <= free_nodes()) {
        break;
      }
    }
    if (k == queue_.size()) {
      wakeup_.cancel();
      if (next < des::kTimeInfinity) {
        wakeup_ = sim_.schedule_at(
            next, [this] { dispatch_ready(); }, des::Priority::kControl,
            event_tag());
      }
      return;
    }
    const JobId id = queue_[k].job.id;
    const Time r = queue_[k].reserved_start;
    const Time req = queue_[k].job.requested_time;
    const int nodes = queue_[k].job.nodes;
    Job job = std::move(queue_[k].job);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(k));
    if (try_start(std::move(job))) {
      // Its footprint in the profile is the reservation it held.
      running_end_.try_emplace(id, r + req);
    } else {
      // Declined: its reservation must be released so later jobs can
      // move up.
      if (incremental_base_ok()) {
        release_reservation(r, req, nodes);
        compress_from(k);
      } else {
        rebuild_profile();
      }
      if (self_check_) verify_against_rebuild();
    }
  }
}

void CbfScheduler::verify_against_rebuild() {
  const Time now = sim_.now();
  Profile& oracle = rebuild_scratch_;
  oracle.reset();
  for (const auto& kv : running_jobs()) {
    const Job& job = kv.second;
    const Time end = job.start_time + job.requested_time;
    if (end > now) oracle.reserve(now, end - now, job.nodes);
  }
  bool ok = true;
  for (const Entry& e : queue_) {
    const Time s =
        oracle.earliest_start(now, e.job.nodes, e.job.requested_time);
    oracle.reserve(s, e.job.requested_time, e.job.nodes);
    if (s != e.reserved_start) ok = false;
  }
  if (ok && profile_.future_equals(oracle, now)) return;
  ++self_check_fallbacks_;
  rebuild_profile();  // adopt the oracle's answer; behaviour stays right
}

}  // namespace rrsim::sched

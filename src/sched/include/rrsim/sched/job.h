// The scheduler-side view of a job (one *request* in one batch queue).
// When redundant requests are used, each replica of a grid job is a
// distinct sched::Job in a distinct cluster's queue.
#pragma once

#include <cstdint>

#include "rrsim/des/simulation.h"

namespace rrsim::sched {

using des::Time;

/// Identifies one request within one scheduler. Replicas of the same grid
/// job have different JobIds and share their Job::owner. 32 bits
/// by design: ids are allocated densely from 1, and even the grid-scale
/// target (10^7 jobs x up to 64 replicas) stays well under 2^32 — halving
/// every per-job table slot that keys on a JobId.
using JobId = std::uint32_t;

/// Identifies the human (or account) behind a request, for per-user
/// policies such as pending-request limits.
using UserId = std::uint32_t;

/// One batch request. `requested_time` is what the user asked for (the
/// scheduler plans with it); `actual_time` is how long the job really runs
/// (always <= requested_time — real schedulers kill jobs at the limit).
/// A Job carries no lifecycle state: it is pending while it sits in its
/// scheduler's queue, running while it sits in the running set, and
/// ended once it is in neither. 56 bytes (pinned below): the pending
/// queues and the running set hold one per live request.
struct Job {
  JobId id = 0;
  int nodes = 1;
  Time submit_time = 0.0;
  Time requested_time = 1.0;
  Time actual_time = 1.0;
  UserId user = 0;
  /// Opaque owner tag: schedulers copy it and hand it back in every
  /// callback, and never read it. The grid::Gateway stores the grid job id
  /// here, so any replica names its user job without a lookup table; 0
  /// means no owner (background load submitted straight to a scheduler).
  std::uint32_t owner = 0;
  /// Exempt from per-user pending limits. The grid gateway marks the
  /// local (origin) replica exempt: a user's home submission always
  /// enters the queue eventually, only *extra* redundancy is capped —
  /// the mitigation the paper's Section 2/6 describes ("batch schedulers
  /// can be configured so that a single user can only have a limited
  /// number of pending requests").
  bool limit_exempt = false;

  Time start_time = -1.0;

  /// Queue waiting time; only meaningful once the job has started.
  Time wait_time() const noexcept { return start_time - submit_time; }
  /// When the job ends: the instant its completion event fires. Only
  /// meaningful once the job has started.
  Time finish_time() const noexcept { return start_time + actual_time; }
};
static_assert(sizeof(Job) == 56, "sched::Job grew: every queue slot pays");

}  // namespace rrsim::sched

// Abstract batch scheduler managing one cluster's queue, plus the shared
// machinery every concrete algorithm (FCFS, EASY, CBF) builds on: the
// running set, the grant/decline start protocol, completion events, and
// operation counters for the Section 4 load study.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "rrsim/des/simulation.h"
#include "rrsim/sched/job.h"
#include "rrsim/util/flat_map.h"

namespace rrsim::sched {

/// Operation counters, for the middleware/scheduler load analysis.
struct OpCounters {
  std::uint64_t submits = 0;    ///< qsub-equivalents accepted
  std::uint64_t rejects = 0;    ///< submissions refused (per-user limit)
  std::uint64_t cancels = 0;    ///< qdel-equivalents that removed a job
  std::uint64_t starts = 0;     ///< jobs granted nodes
  std::uint64_t finishes = 0;   ///< jobs that ran to completion
  std::uint64_t declines = 0;   ///< grants refused by the owner
  std::uint64_t sched_passes = 0;  ///< scheduling passes executed
  std::uint64_t profile_rebuilds = 0;  ///< CBF from-scratch rebuilds

  /// Adds every field of `other` (platform-wide totals).
  OpCounters& operator+=(const OpCounters& other) noexcept {
    submits += other.submits;
    rejects += other.rejects;
    cancels += other.cancels;
    starts += other.starts;
    finishes += other.finishes;
    declines += other.declines;
    sched_passes += other.sched_passes;
    profile_rebuilds += other.profile_rebuilds;
    return *this;
  }
};

/// Batch scheduler for a single cluster.
///
/// Event flow: `submit()` enqueues a request; the scheduler decides starts
/// during scheduling passes (triggered by submissions, cancellations, and
/// completions). Before starting a job it consults the grant callback —
/// the grid Gateway uses this to refuse starts for jobs whose sibling
/// replica already won elsewhere (the paper's cancel-on-callback protocol
/// with zero network delay). Completions are scheduled on the simulation
/// at start + actual_time.
///
/// A job lives in exactly one place: the algorithm's pending queue while
/// it waits, the running set while it runs. Its state is where it sits,
/// so no per-job table mirrors it, and a job that is cancelled, declined
/// or finished is in neither: an ended id answers like an unknown one.
/// Per-user state is kept only under a pending limit, and only for users
/// with a pending job: a grid run without a limit keeps no per-user
/// table, however many users its replicas carry.
class ClusterScheduler {
 public:
  /// Owner hooks. All optional; a null grant accepts every start.
  /// std::function is deliberate here: the hooks are installed once per
  /// run (never per event), their captures fit the small-buffer
  /// optimisation, and every signature takes the Job — which
  /// util::InlineFunction (void() only) cannot express.
  struct Callbacks {
    /// Asked immediately before `job` would start; return false to refuse
    /// (the request is then removed from the queue as Declined).
    // rrsim-lint-allow(std-function-member): installed once per run; the
    // bool(const Job&) signature is inexpressible as InlineFunction.
    std::function<bool(const Job&)> on_grant;
    /// Job started (after a successful grant).
    // rrsim-lint-allow(std-function-member): installed once per run; the
    // void(const Job&) signature is inexpressible as InlineFunction.
    std::function<void(const Job&)> on_start;
    /// Job ran to completion.
    // rrsim-lint-allow(std-function-member): installed once per run; the
    // void(const Job&) signature is inexpressible as InlineFunction.
    std::function<void(const Job&)> on_finish;
    /// Pending job removed via cancel().
    // rrsim-lint-allow(std-function-member): installed once per run; the
    // void(const Job&) signature is inexpressible as InlineFunction.
    std::function<void(const Job&)> on_cancelled;
    /// The start time predicted for `job` as it is submitted, reported
    /// once, before the job can start. Only CBF predicts: the job's
    /// reservation (the paper's Section 5 predictor).
    // rrsim-lint-allow(std-function-member): installed once per run; the
    // void(const Job&, Time) signature is inexpressible as InlineFunction.
    std::function<void(const Job&, Time)> on_prediction;
  };

  /// Binds the scheduler to a simulation and a cluster of `total_nodes`
  /// identical nodes. Throws std::invalid_argument if total_nodes < 1.
  ClusterScheduler(des::Simulation& sim, int total_nodes);
  virtual ~ClusterScheduler() = default;

  ClusterScheduler(const ClusterScheduler&) = delete;
  ClusterScheduler& operator=(const ClusterScheduler&) = delete;

  void set_callbacks(Callbacks callbacks) { callbacks_ = std::move(callbacks); }

  /// Submits a request at the current simulation time. The job's
  /// actual_time is clamped to requested_time (schedulers kill jobs at
  /// their limit). Returns false — and leaves all state untouched — when
  /// a configured per-user pending limit refuses the request. Throws
  /// std::invalid_argument if the job can never run here (nodes < 1 or >
  /// total), has the id of a pending or running job, or non-positive
  /// times. The id of a job that has ended is forgotten and may be
  /// submitted again; the gateway never reuses one.
  bool submit(Job job);

  /// Caps the number of *pending* requests any one user may have in this
  /// queue (running jobs do not count, matching PBS-style limits).
  /// nullopt (default) disables the limit. Jobs with limit_exempt set
  /// bypass it, but count toward their user's pending total. Pending
  /// counts are kept only while a limit is set, so enabling one on a
  /// scheduler that holds pending jobs throws std::logic_error; a negative
  /// limit throws std::invalid_argument.
  void set_per_user_pending_limit(std::optional<int> limit);

  /// Cancels a *pending* request (qdel). Returns true if the job was
  /// pending and has been removed; false if unknown, running, or ended.
  /// The algorithm's queue answers membership: EASY and FCFS in O(1)
  /// through their pending queue's index, CBF by scanning its queue
  /// (redundant-request workloads are cancel-heavy: every grid job with
  /// redundancy degree N issues up to N-1 cancels).
  bool cancel(JobId id);

  /// Algorithm name ("fcfs", "easy", "cbf").
  virtual std::string name() const = 0;

  // --- Introspection -----------------------------------------------------

  int total_nodes() const noexcept { return total_nodes_; }
  int free_nodes() const noexcept { return free_nodes_; }
  std::size_t running_count() const noexcept { return running_.size(); }

  /// Cluster tag stamped on every event this scheduler posts (completion
  /// and wake-up events), so tie-break explorers can attribute them to a
  /// cluster. Identity-like configuration: like the owner callbacks it
  /// survives reset(). Default des::kNoEventTag (unattributed).
  void set_event_tag(std::uint32_t tag) noexcept { event_tag_ = tag; }
  std::uint32_t event_tag() const noexcept { return event_tag_; }
  virtual std::size_t queue_length() const = 0;
  const OpCounters& counters() const noexcept { return counters_; }
  des::Simulation& simulation() noexcept { return sim_; }

  /// Bytes of job-proportional live state this scheduler holds: the
  /// running set, the per-user pending counts under a limit, plus the
  /// algorithm's own pending structures. Capacity-based, so it reports the
  /// run's high-water footprint even after erasures — the number the
  /// memory-budget benches track.
  virtual std::size_t live_state_bytes() const noexcept;

  /// Returns the scheduler to its just-constructed state — empty queue,
  /// all nodes free, zeroed counters, no per-user limit — while keeping
  /// container storage allocated where the representation allows, so a
  /// reused scheduler runs its next experiment with warm arenas. Owner
  /// callbacks are kept (they bind the scheduler to its Gateway, which
  /// outlives resets). Callers must reset the owning Simulation
  /// first/alongside: completion events scheduled by the previous run are
  /// orphaned, not cancelled, here.
  virtual void reset();

#if RRSIM_VALIDATE_ENABLED
  /// Full cross-consistency sweep: node accounting, no running id still
  /// queued, and the per-user table (empty without a limit; under one,
  /// positive counts that sum to queue_length()). O(running x membership
  /// lookup) — tests and reset paths only; the per-operation checks cover
  /// the job each operation touched.
  virtual void debug_validate() const;

  /// Corruption hook for the oracle death tests: leaks one node from the
  /// free count, as a mismatched reserve/release pair would.
  void debug_corrupt_accounting() noexcept { --free_nodes_; }
#endif

 protected:
  // --- Services for concrete algorithms ----------------------------------

  /// Attempts to start `job` now: consults the grant callback; on success
  /// allocates nodes, schedules completion, fires on_start, and returns
  /// true. On decline drops the job and returns false. The caller must
  /// have removed the job from its pending structures first.
  bool try_start(Job job);

  /// The authoritative running set, keyed by id (iteration order is id
  /// order — profile rebuilds must reserve footprints in this order to
  /// reproduce historical results exactly; the sorted-vector map keeps
  /// that order while making the walk a contiguous scan).
  const util::FlatOrderedMap<JobId, Job>& running_jobs() const noexcept {
    return running_;
  }

  /// Called after submit() has validated and counted the job.
  virtual void handle_submit(Job job) = 0;

  /// Called to cancel `id`. If it is queued, implementations remove it
  /// from their structures, run their pass and return the Job by value;
  /// otherwise they change nothing and return nullopt.
  virtual std::optional<Job> handle_cancel(JobId id) = 0;

  /// Called after a running job finished and freed its nodes.
  virtual void handle_completion(const Job& job) = 0;

  /// True if `id` is in the algorithm's pending structures.
  virtual bool queued(JobId id) const = 0;

  /// Hands the start time predicted for `job` at its submission to the
  /// owner's on_prediction hook (CBF: the job's reservation).
  void report_prediction(const Job& job, Time start) const {
    if (callbacks_.on_prediction) callbacks_.on_prediction(job, start);
  }

  void count_pass() noexcept { ++counters_.sched_passes; }
  void count_rebuild() noexcept { ++counters_.profile_rebuilds; }

  des::Simulation& sim_;

 private:
  void complete_job(JobId id);

  /// Takes one job of `user` off the pending counts (under a limit; a
  /// no-op without one), erasing the user's entry when it reaches 0.
  void leave_pending(UserId user) noexcept;

#if RRSIM_VALIDATE_ENABLED
  /// Where an operation left the job it touched.
  enum class Place : std::uint8_t { kQueue, kRunning, kGone };

  /// Per-operation check, O(running + membership lookup): free_nodes_
  /// must equal total minus the running set's footprint, the touched job
  /// must be in the queue, the running set or neither as `expected` says,
  /// and (outside a cancel's pass) the per-user counts must hold.
  void validate_op(JobId touched, Place expected) const;

  /// Under a limit, the per-user counts are positive and sum to
  /// queue_length(); without one, the table is empty.
  void validate_pending_counts() const;

  /// Set while handle_cancel runs: the job it took out of the queue still
  /// counts for its user until cancel() takes it off after the pass.
  bool cancel_in_pass_ = false;
#endif

  int total_nodes_;
  int free_nodes_;
  std::uint32_t event_tag_ = des::kNoEventTag;  // see set_event_tag()
  Callbacks callbacks_;
  OpCounters counters_;
  std::optional<int> per_user_limit_;
  /// Pending jobs per user, under a limit only: a user's entry exists
  /// while it has a pending job and is erased when its count reaches 0.
  util::FlatHashMap<UserId, int> pending_per_user_;
  /// The running jobs, in id order (see running_jobs()).
  util::FlatOrderedMap<JobId, Job> running_;
};

}  // namespace rrsim::sched

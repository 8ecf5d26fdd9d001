// The Gateway implements user-driven redundant requests exactly as the
// paper describes them: one job, k replica requests in k different batch
// queues; when one replica is granted nodes the others are cancelled
// (cancel-on-start). Remote replicas may request inflated compute time —
// late binding of input data, the Section 3.1.2 +10 %/+50 % experiment.
//
// One protocol over two transports. The gateway's state lives in one
// agent per platform partition (Platform::partition_of): the origin
// cluster's agent owns a job's tracking entry, mints its replica ids and
// writes its record. Between two clusters of one partition a message is a
// direct call — sibling qdels become same-instant kCancel events, or
// middleware transactions. Between partitions it is
// exec::PdesCoordinator::post() one latency L later.
//
//   * Classic kernel (every cluster on one simulation: one partition) —
//     the paper's zero network delay. Every grant consults the origin at
//     once: the first grant wins and its siblings are cancelled; any
//     later grant for a sibling is declined.
//   * PDES kernel (one partition per cluster, --pdes --latency=L) — a
//     grant outside the origin's partition stands and its start notice
//     travels L, so a grid job may start more than once
//     (duplicate_starts()). Such a record keeps the user's submit instant
//     at the origin, not the L-delayed time the replica entered its queue.
//
// Features that need one instant view of every cluster — middleware
// stations, submit-time predictions, the streaming record sink and
// moldable shapes — are rejected on more than one partition.
//
// Thread contract: every handler runs on the partition that owns the
// state it touches, so PDES runs need no locks and are bit-identical for
// any worker count (exec/pdes.h, DESIGN.md §9).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "rrsim/des/simulation.h"
#include "rrsim/grid/middleware.h"
#include "rrsim/grid/platform.h"
#include "rrsim/metrics/online.h"
#include "rrsim/metrics/record.h"
#include "rrsim/util/flat_map.h"
#include "rrsim/workload/jobspec.h"

namespace rrsim::grid {

/// Identifies one user job across all its replicas.
using GridJobId = std::uint64_t;

/// A user job about to be submitted through the gateway.
struct GridJob {
  GridJobId id = 0;
  std::size_t origin = 0;            ///< cluster where the user "lives"
  sched::UserId user = 0;            ///< submitting user (for limits)
  workload::JobSpec spec;            ///< nodes / runtime / requested time
  bool redundant = false;            ///< does it use redundant requests?
  std::vector<std::size_t> targets;  ///< clusters to submit to (origin first)
  /// Per-replica shape overrides for *moldable* redundancy (the paper's
  /// option (iv)): when non-empty it must have one entry per target, and
  /// replica i is submitted with replica_specs[i]'s nodes/runtime/
  /// requested time instead of `spec` (no remote inflation applied —
  /// shapes are explicit). Targets may then repeat, i.e. several shapes
  /// of the same job may sit in one batch queue.
  std::vector<workload::JobSpec> replica_specs;
};

/// Submits replica sets, arbitrates grants, cancels siblings, and collects
/// per-job outcome records. Counter accessors sum over the partitions and
/// must only be called while no partition is running.
class Gateway {
 public:
  /// Becomes the grant/finish owner of every scheduler on `platform`.
  /// `record_predictions`: if true, every submission queries the target
  /// schedulers' submit-time start predictions and stores the minimum over
  /// replicas in the job record (Section 5 methodology); throws
  /// std::invalid_argument on more than one partition.
  explicit Gateway(Platform& platform, bool record_predictions = false);

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Routes all request submissions and cancellations through per-cluster
  /// middleware stations (one per cluster, not owned). Must be called
  /// before the first submit; pass an empty vector to restore direct
  /// (zero-overhead) delivery — the paper's Section 3 assumption.
  /// Submit-time prediction recording needs instantaneous delivery and is
  /// unsupported with middleware. Throws std::invalid_argument on a size
  /// mismatch, if predictions are being recorded, or on more than one
  /// partition.
  void set_middleware(std::vector<MiddlewareStation*> stations);

  /// Submits `job` from its origin cluster at the origin's current time;
  /// must run on the origin's partition. Replicas on non-origin clusters
  /// have their requested time multiplied by `remote_inflation` (>= 1;
  /// models requesting extra time to upload input data after late
  /// binding). Every check runs before any state changes. Throws
  /// std::invalid_argument if targets is empty, the origin or a target is
  /// not a cluster of the platform, the origin is not among the targets, a
  /// target repeats without replica shapes, shapes are given on more than
  /// one partition, or the grid id is taken; std::length_error if the
  /// origin's replica ids run out.
  void submit(const GridJob& job, double remote_inflation = 1.0);

  /// Folds each finished job's record into `sink` instead of appending it
  /// to the record buffer (constant-memory campaigns). This is the only
  /// difference between the two record modes: the same JobRecord is built
  /// either way, and records are fed in finish order — the order
  /// records() would hold them — so metrics from the accumulator are
  /// bit-identical to the batch functions over a retained run's records.
  /// Pass nullptr to restore record retention. The sink must outlive the
  /// run; reset() clears it. Throws std::invalid_argument for a sink on
  /// more than one partition.
  void set_record_sink(metrics::OnlineAccumulator* sink);

  /// Bytes of job-proportional live tracking state (tracked jobs, their
  /// replica lists, and the replica index), capacity-based so it reports
  /// the run's high-water footprint. Retained records are *not* included
  /// — they are output, not live state.
  std::size_t live_state_bytes() const noexcept;

  /// Records of all grid jobs that finished so far, in finish order. Only
  /// one partition keeps them in one buffer: throws std::logic_error on
  /// more (use take_records()).
  const metrics::JobRecords& records() const;

  /// Moves the collected records out: the partitions' buffers
  /// concatenated in partition order, each in its own finish order. With
  /// one partition the buffer itself is moved, not copied.
  metrics::JobRecords take_records();

  /// Pre-sizes the record buffer that jobs from cluster `origin` finish
  /// into for `n` records, so the per-finish collection path never
  /// reallocates mid-run. With one partition every origin shares one
  /// buffer: pass the total.
  void reserve_records(std::size_t origin, std::size_t n);

  /// Returns the gateway to its just-constructed state (with the given
  /// prediction-recording mode), keeping hash-table buckets and record
  /// capacity warm. Middleware routing reverts to direct delivery;
  /// scheduler callbacks are re-installed. The platform and simulation
  /// must have been reset alongside.
  void reset(bool record_predictions = false);

  /// Grid jobs submitted / finished (conservation checks in tests).
  std::uint64_t submitted() const noexcept { return sum(&Counts::submitted); }
  std::uint64_t finished() const noexcept { return sum(&Counts::finished); }

  /// Replica-level cancellations the gateway issued (middleware load):
  /// qdels that removed a pending replica plus grants it declined.
  std::uint64_t cancellations_issued() const noexcept {
    return sum(&Counts::cancels);
  }

  /// Replica submissions refused by per-user pending limits. The origin
  /// replica is always exempt, so every grid job still runs.
  std::uint64_t replicas_rejected() const noexcept {
    return sum(&Counts::rejected);
  }

  /// Replicas dropped before delivery because their job had already
  /// started elsewhere (only middleware delays delivery that long).
  std::uint64_t replicas_dropped() const noexcept {
    return sum(&Counts::dropped);
  }

  /// Grid jobs that started on more than one cluster because a grant
  /// outside the origin's partition raced the sibling cancellation — the
  /// latency-specific harm of redundant requests. Always 0 on one
  /// partition, where the same grant is declined.
  std::uint64_t duplicate_starts() const noexcept {
    return sum(&Counts::duplicate_starts);
  }

  /// Finish notices discarded because the job's record already existed
  /// (the duplicate runs completing).
  std::uint64_t duplicate_finishes() const noexcept {
    return sum(&Counts::duplicate_finishes);
  }

  /// Live cross-cluster couplings: tracked grid jobs whose replica set
  /// still spans >= 2 distinct clusters. While this is 0, same-timestamp
  /// events on different clusters cannot influence each other through
  /// the gateway's shared tracking state — the independence criterion
  /// tie-break schedule explorers use for DPOR-style pruning. O(tracked
  /// jobs); sampled per tie group by explorers, never on the hot path.
  std::uint64_t cross_cluster_links() const noexcept;

  /// The id partition `partition` of `partitions` gives its k-th replica:
  /// partition + 1 + k * partitions, so no two partitions mint the same id
  /// and (id - 1) mod partitions names the minting (origin) partition.
  /// One partition mints 1, 2, 3, .... Throws std::length_error past the
  /// 32-bit id space.
  static sched::JobId replica_id(std::size_t partition,
                                 std::size_t partitions, std::uint64_t k);

#if RRSIM_VALIDATE_ENABLED
  /// Full tracking sweep over every partition: every replica of every
  /// tracked job maps back to that job in its origin's replica index, and
  /// each index holds exactly the tracked replicas (size-sum agreement).
  /// O(total jobs) — tests and reset paths; per-operation checks cover the
  /// job each op touched.
  void debug_validate() const;

  /// Corruption hook for the oracle death tests: re-points one replica's
  /// index entry at a nonexistent grid job.
  void debug_corrupt_tracking();
#endif

 private:
  /// Per-job live tracking state, kept deliberately compact (48 bytes +
  /// one 8-byte-per-replica vector): the full GridJob is never needed
  /// after submission — only the origin, the redundancy intent, and the
  /// replica count survive into the job record — and at grid scale this
  /// struct's size bounds the gateway's memory high-water.
  struct Tracked {
    struct Replica {
      std::uint32_t cluster = 0;
      sched::JobId id = 0;
    };
    /// One entry per live (delivered, not dropped/rejected) replica.
    std::vector<Replica> replicas;
    double submit_time = 0.0;  ///< the user's submit instant at the origin
    /// Min-over-replicas submit-time prediction; NaN when not recorded.
    double predicted_start = std::numeric_limits<double>::quiet_NaN();
    std::uint32_t origin = 0;
    std::uint16_t replicas_sent = 0;  ///< requests the user sent (intent)
    bool redundant : 1 = false;
    bool started : 1 = false;
    bool finished : 1 = false;
  };

  struct Counts {
    std::uint64_t submitted = 0;
    std::uint64_t finished = 0;
    std::uint64_t cancels = 0;
    std::uint64_t rejected = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicate_starts = 0;
    std::uint64_t duplicate_finishes = 0;
  };

  /// Everything one partition owns; only that partition's thread may
  /// touch it while the coordinator runs.
  struct Agent {
    des::Simulation* sim = nullptr;
    util::FlatHashMap<GridJobId, Tracked> tracked;  ///< jobs originating here
    /// Replica -> grid job for the replicas minted here, keyed by the mint
    /// ordinal (id - 1) / partitions: ids are dense per partition, so the
    /// index is direct-indexed, not a hash. Values are 32-bit: submit()
    /// rejects grid ids above 2^32 - 1.
    util::DenseIdMap<std::uint32_t> replica_to_grid;
    metrics::JobRecords records;
    std::uint64_t minted = 0;  ///< replica ids minted so far
    Counts counts;
  };

  bool on_grant(std::size_t cluster, const sched::Job& job);
  void on_finish(std::size_t cluster, const sched::Job& job);
  void install_callbacks(std::size_t cluster);
  /// Checks `job` against the platform and this gateway's state; throws
  /// what submit() documents.
  void validate_submission(const GridJob& job,
                           double remote_inflation) const;
  /// Runs on the origin's partition: the first start of a tracked job.
  /// Cancels every sibling outside the winner's cluster.
  void start(std::size_t origin_partition, Tracked& tracked,
             std::size_t winner_cluster);
  /// Runs on the origin's partition: a start notice from another one.
  void on_start_notice(std::size_t winner_cluster, sched::JobId replica);
  /// Runs on the origin's partition: writes the record of the replica
  /// that finished on `cluster`, then reclaims the job when it can.
  void record_finish(std::size_t cluster, const sched::Job& job);
  /// Runs on the origin's partition: a scheduler refused the replica.
  void on_reject(sched::JobId replica);
  /// Hands the replica to the target scheduler. `deferred` marks
  /// middleware delivery: only then may a replica whose job already
  /// started be dropped before submission (the client skips an op still
  /// sitting in its own queue); with direct delivery every qsub has
  /// already been issued and must reach the scheduler.
  void deliver_submit(std::size_t cluster, const sched::Job& replica,
                      bool deferred);
  /// Issues a qdel for a (possibly no longer pending) replica.
  void deliver_cancel(std::size_t cluster, sched::JobId replica);
  /// Runs `fn` on partition `to`, one latency after partition `from`'s now.
  template <typename Fn>
  void send(std::size_t from, std::size_t to, des::Priority priority,
            Fn&& fn);

  /// The partition that minted `replica` — its job's origin partition.
  /// One partition, the classic kernel's hot path, needs no division.
  std::size_t origin_of(sched::JobId replica) const noexcept {
    return agents_.size() == 1
               ? 0
               : (replica - 1u) % static_cast<std::uint32_t>(agents_.size());
  }
  /// `replica`'s key in its origin's replica index: its mint ordinal.
  std::uint64_t slot_of(sched::JobId replica) const noexcept {
    return agents_.size() == 1
               ? replica - 1u
               : (replica - 1u) / static_cast<std::uint32_t>(agents_.size());
  }
  /// The tracking entry of `replica`'s job at its origin; null for a job
  /// the gateway does not manage (background load) or no longer tracks.
  Tracked* tracked_of(sched::JobId replica, GridJobId* grid_id = nullptr);
  /// Removes a replica that never reached (or was refused by) a queue.
  void forget_replica(Agent& agent, Tracked& tracked, sched::JobId replica);

  std::uint64_t sum(std::uint64_t Counts::*counter) const noexcept {
    std::uint64_t n = 0;
    for (const Agent& a : agents_) n += a.counts.*counter;
    return n;
  }

#if RRSIM_VALIDATE_ENABLED
  /// Per-operation check, O(replicas of one job): the job's replica list
  /// and its origin's replica index must agree, and each replica's target
  /// cluster must exist on the platform.
  void validate_job(std::size_t origin_partition, GridJobId id) const;
#endif

  Platform& platform_;
  double latency_;  ///< coordinator lookahead; 0 on one partition
  bool record_predictions_;
  std::vector<MiddlewareStation*> middleware_;  // empty = direct delivery
  metrics::OnlineAccumulator* sink_ = nullptr;  // null = retain records
  std::vector<Agent> agents_;                   // one per partition
};

}  // namespace rrsim::grid

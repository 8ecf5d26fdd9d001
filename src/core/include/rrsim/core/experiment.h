// One complete multi-cluster simulation: N clusters + schedulers, one job
// stream per cluster, a redundancy scheme applied by some fraction p of
// the jobs, and the metrics the paper reports. This is the engine behind
// every figure and table in Section 3 and Section 5.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rrsim/core/scheme.h"
#include "rrsim/des/simulation.h"
#include "rrsim/metrics/online.h"
#include "rrsim/metrics/record.h"
#include "rrsim/sched/factory.h"
#include "rrsim/sched/scheduler.h"
#include "rrsim/workload/lublin.h"

namespace rrsim::grid {
class Gateway;
class Platform;
}  // namespace rrsim::grid

namespace rrsim::core {

/// How the workload's arrival rate maps onto the platform.
enum class LoadMode {
  /// The model's "peak hour" arrival process describes the *whole system*:
  /// each of the N clusters receives a stream with mean inter-arrival
  /// N * base rate, so total offered load is constant as N grows. This is
  /// the reading of the paper's setup ("6 hours of job submissions,
  /// around 4,000 jobs") that reproduces its observed behaviour —
  /// redundancy harmful at N = 2 (clusters overloaded), beneficial for
  /// N > 5 (load per cluster drops below 1), stretch magnitudes of a few
  /// to a few hundred. The default.
  kSharedPeak,
  /// Every cluster receives the full model-rate stream (mean 5 s
  /// inter-arrival). Heavily overloads each cluster — queues grow by
  /// hundreds of jobs per hour, which is the regime of the paper's
  /// Section 4.1 queue-growth statement.
  kPerClusterPeak,
  /// Rescale each cluster's arrival rate so its offered load equals
  /// target_utilization (steady-state studies).
  kCalibrated,
};

/// Everything that defines one simulation run. Defaults mirror the paper's
/// base setup: 128-node clusters, EASY, exact estimates, uniform replica
/// placement, 6 h of submissions, every job redundant.
struct ExperimentConfig {
  // --- platform ---------------------------------------------------------
  std::size_t n_clusters = 10;  ///< at most 2^20 (see users_per_cluster)
  int nodes_per_cluster = 128;
  /// Per-cluster sizes; overrides nodes_per_cluster when non-empty
  /// (Table 3 heterogeneity). Must then have n_clusters entries.
  std::vector<int> cluster_nodes;
  sched::Algorithm algorithm = sched::Algorithm::kEasy;

  // --- workload ----------------------------------------------------------
  workload::LublinParams base_workload{};
  LoadMode load_mode = LoadMode::kSharedPeak;
  /// Offered load per cluster for LoadMode::kCalibrated.
  double target_utilization = 0.92;
  /// Per-cluster mean inter-arrival override, seconds (Table 3 draws
  /// these from [2, 20] s). Overrides load_mode when non-empty.
  std::vector<double> cluster_mean_iat;
  double submit_horizon = 6.0 * 3600.0;  ///< seconds of job submissions
  /// "exact", "phi" or "uniform216" (see workload/estimators.h).
  std::string estimator = "exact";
  /// SWF trace files replayed *instead of* the Lublin model — the
  /// cross-check the paper ran against Parallel Workloads Archive logs.
  /// When non-empty, cluster i replays trace_files[i % size()]: submit
  /// times are shifted to start at 0 and truncated to submit_horizon,
  /// jobs wider than the cluster are skipped, and the traces' own
  /// requested times are kept (load_mode and estimator do not apply).
  /// Composes with stream_window > 0: the trace is spooled to disk once
  /// (workload::WindowSpool) and replayed window by window. Every input
  /// and record mode replays integer-time ties in the same order.
  std::vector<std::string> trace_files;

  // --- redundancy --------------------------------------------------------
  RedundancyScheme scheme = RedundancyScheme::none();
  double redundant_fraction = 1.0;  ///< the paper's p, in [0, 1]
  std::string placement = "uniform";  ///< or "biased" (Table 2)
  double remote_inflation = 1.0;  ///< requested-time factor on remote
                                  ///< replicas (§3.1.2: 1.1, 1.5)

  // --- middleware (§4.2, made dynamic) -------------------------------------
  /// Sustainable middleware operations per second per cluster (submission
  /// or cancellation each count as one; GT4 WS-GRAM sustains ~1). Every
  /// request then flows through a FIFO station and arrives late when the
  /// station saturates. 0 disables middleware (the paper's Section 3
  /// zero-overhead assumption). Incompatible with record_predictions.
  double middleware_ops_per_sec = 0.0;

  // --- mitigation: per-user pending limits (§2/§6) -------------------------
  /// Cap on pending requests per user per queue; 0 disables. The origin
  /// replica is exempt (a user's home submission always enters), so the
  /// cap only trims redundancy.
  int per_user_pending_limit = 0;
  /// Size of the user population at each cluster (jobs are attributed to
  /// users uniformly). Only meaningful with a pending limit; smaller
  /// populations make the limit bind sooner. In [1, 4096]: cluster c's
  /// users carry the 32-bit ids c * 4096 + [0, users_per_cluster).
  int users_per_cluster = 8;

  // --- measurement protocol ----------------------------------------------
  /// If true, the simulation runs until every submitted job finishes (the
  /// queues drain) and metrics cover all jobs. If false, the simulation
  /// stops at submit_horizon * truncate_factor and metrics cover only the
  /// jobs that completed by then — the appropriate protocol for the
  /// paper's Section 3 experiments, whose "peak hour" arrival rate
  /// overloads the clusters so badly (queues grow ~700 jobs/hour) that
  /// its reported stretch magnitudes are only attainable over the jobs
  /// that finish within the observation window.
  bool drain = true;
  double truncate_factor = 1.0;  ///< observation window, multiple of
                                 ///< submit_horizon (used when !drain)

  // --- cross-cluster latency / parallel execution --------------------------
  /// Run on the conservative parallel kernel: one DES partition per
  /// cluster, advanced in lookahead windows (exec/pdes.h), with the
  /// gateway's messages between partitions taking the latency
  /// (grid/gateway.h). Requires cross_cluster_latency > 0 — the latency is
  /// the protocol's lookahead. Results are bit-identical for any
  /// pdes_jobs. Incompatible with middleware, record_predictions,
  /// streaming (retain_records == false) and the "least-loaded" placement
  /// (which needs a global queue view).
  bool pdes = false;
  /// One-way latency, in seconds, of every cross-cluster interaction:
  /// remote replica submission, sibling cancellation, and the notices that
  /// flow back to the origin. 0 (the default) is the paper's zero-delay
  /// assumption, served by the classic single-gateway kernel; > 0 requires
  /// pdes and models the real-grid regime where a job can start on two
  /// clusters because the cancellation was still in flight
  /// (SimResult::duplicate_starts).
  double cross_cluster_latency = 0.0;
  /// Worker threads for the PDES kernel; <= 0 resolves like --jobs
  /// (RRSIM_JOBS, then hardware_concurrency), and is clamped to
  /// n_clusters. 1 runs the same windowed protocol sequentially.
  int pdes_jobs = 0;

  // --- bookkeeping ---------------------------------------------------------
  /// Section 5 instrumentation: record CBF's submit-time reservations as
  /// queue-wait predictions. Requires algorithm == kCbf, the only
  /// scheduler that predicts.
  bool record_predictions = false;
  /// If true (the default), every finished job is appended to
  /// SimResult::records — the mode all figure/table pipelines use. If
  /// false, the run *streams*: per-job outcomes are folded into
  /// SimResult::stream as they finish, so record-side memory stays
  /// O(live jobs) instead of O(total jobs) — the mode that makes 10^6-job
  /// campaigns fit in tens of MB.
  /// Only the gateway's record sink differs: the simulated schedule, and
  /// so every metric, is bit-identical to the retained mode, including
  /// integer-time SWF ties. Composes with any stream_window.
  bool retain_records = true;
  /// If > 0, job streams are never materialized whole: generation is
  /// windowed (workload::StreamWindow pulls this many jobs at a time from
  /// the per-cluster generators, bit-identical output by construction) and
  /// the TraceCache memoizes generator *checkpoints* instead of streams,
  /// so resident trace state is O(stream_window x clusters) instead of
  /// O(total jobs) — the regime that fits 10^3 clusters x 10^7 jobs.
  /// File-backed traces (trace_files) have no generator to checkpoint;
  /// they are spooled to an unlinked temp file instead
  /// (workload::WindowSpool, cached per trace key), keeping only the
  /// window index resident. Either way the arrival pump sees the same
  /// jobs in the same order as a whole-stream run, so results are
  /// bit-identical for any window, on both kernels and in both record
  /// modes. 0 (the default) keeps whole-stream resolution.
  std::size_t stream_window = 0;
  double queue_sample_interval = 60.0;  ///< seconds between queue samples
  std::uint64_t seed = 1;

  /// Tie-break schedule hook for the rrsim_check explorer: when non-null,
  /// the policy is installed on the classic kernel's simulation (and on
  /// every PDES partition, which then requires pdes_jobs == 1 so policy
  /// calls stay single-threaded) before any event is scheduled, and its
  /// coupling probe is attached to the gateway/coordinator. Not owned;
  /// must outlive the run. Deliberately *not* part of the trace-cache
  /// key: the policy permutes dispatch order, never the generated
  /// workload. nullptr (default) keeps the kernel's seq-order fast path —
  /// outputs are bit-identical to a build without this field.
  des::TieBreakPolicy* tie_break_policy = nullptr;

  /// Resolved size of cluster `i`.
  int nodes_of(std::size_t i) const;

  /// Field-wise, so a field added later is compared too. A NaN field
  /// never compares equal (CampaignSweep then simply runs it unshared).
  friend bool operator==(const ExperimentConfig&,
                         const ExperimentConfig&) = default;
};

/// Outcome of one run.
struct SimResult {
  metrics::JobRecords records;  ///< one entry per finished grid job
                                ///< (empty when streamed)
  /// Streaming-mode metrics: every finished job folded in, in finish
  /// order. Only populated when streamed is true.
  metrics::OnlineAccumulator stream;
  bool streamed = false;  ///< ran with retain_records == false
  /// High-water bytes of job-proportional live simulation state (gateway
  /// tracking, scheduler tables, and the arrival pump's lanes and staged
  /// cohort). Capacity-based, so it reports the run's peak even though
  /// tables shrink as jobs finish. Excludes the retained records, the
  /// trace inputs (resident_trace_bytes) and the DES event slab.
  std::size_t live_state_bytes = 0;
  /// Resident bytes of workload trace state during the run, per cluster:
  /// the whole job stream (stream_window == 0), or the checkpoint table
  /// (Lublin) or spool index (SWF) plus one window buffer (stream_window
  /// > 0). The quantity the stream_window option exists to bound.
  std::size_t resident_trace_bytes = 0;
  sched::OpCounters ops;        ///< summed over all schedulers
  /// Events the kernel dispatched, scheduled and cancelled
  /// (des::Simulation::dispatched(), scheduled(), cancelled()), summed
  /// over the run's partitions: deterministic counts of the run's work.
  /// CBF's wake-up churn shows as scheduled and cancelled events that
  /// never dispatch.
  std::uint64_t events_dispatched = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  /// Event-heap entries pushed (des::Simulation::heap_pushes()), summed
  /// over the partitions: events_scheduled less CBF's wake-up moves that
  /// did not move earlier.
  std::uint64_t heap_pushes = 0;
  std::uint64_t gateway_cancels = 0;  ///< replica cancellations issued
  std::uint64_t replicas_rejected = 0;  ///< refused by per-user limits
  std::uint64_t replicas_dropped = 0;  ///< skipped (job already started)
  double middleware_max_backlog = 0.0;  ///< worst station backlog (ops)
  double middleware_mean_sojourn = 0.0;  ///< mean op latency, seconds
  std::uint64_t jobs_generated = 0;
  /// PDES mode only: grid jobs that started on more than one cluster
  /// because the sibling cancellation was still in flight (the
  /// latency-specific harm; always 0 on the zero-delay kernel).
  std::uint64_t duplicate_starts = 0;
  /// PDES mode only: finish notices discarded because the job's record
  /// already existed (the duplicate runs completing).
  std::uint64_t duplicate_finishes = 0;
  /// PDES mode only: barrier windows the coordinator executed.
  std::uint64_t pdes_windows = 0;
  double avg_max_queue = 0.0;  ///< mean over clusters of max queue length
  std::vector<double> queue_growth_per_hour;  ///< per cluster, jobs/hour
  double end_time = 0.0;  ///< simulated time when everything drained
};

/// Reusable per-run simulation state of the classic kernel: the DES event
/// slab, the Platform (schedulers with their profiles and queues) and the
/// Gateway (replica maps and record buffer). Sweep workers keep one
/// workspace per thread and run every work unit through it, so the arenas
/// those structures grew on the first replication stay warm for all later
/// ones. Reuse is strictly behaviour-preserving: every component is reset
/// to its just-constructed state between runs (the tests pin equality
/// against fresh construction), and the Platform/Gateway pair is
/// reconstructed whenever the cluster shape or algorithm changes. PDES
/// runs build their coordinator, platform and gateway afresh and leave the
/// workspace's platform untouched: their gateway keeps every tracking
/// entry for the whole run, which a parked copy would carry into the next.
class ExperimentWorkspace {
 public:
  ExperimentWorkspace();
  ~ExperimentWorkspace();
  ExperimentWorkspace(const ExperimentWorkspace&) = delete;
  ExperimentWorkspace& operator=(const ExperimentWorkspace&) = delete;

  /// Runs that reused the previous run's Platform/Gateway (observability
  /// for tests and the sweep benchmark; a shape change resets nothing
  /// visible here, it just reconstructs).
  std::uint64_t platform_reuses() const noexcept { return reuses_; }

 private:
  friend SimResult run_experiment(const ExperimentConfig& config,
                                  ExperimentWorkspace& workspace);
  des::Simulation sim_;
  std::unique_ptr<grid::Platform> platform_;
  std::unique_ptr<grid::Gateway> gateway_;
  std::uint64_t reuses_ = 0;
};

/// Runs one experiment under the configured measurement protocol (drain or
/// truncate). Deterministic in config.seed.
SimResult run_experiment(const ExperimentConfig& config);

/// Same semantics and bit-identical results, but runs inside `workspace`,
/// reusing its simulation slab, schedulers, and gateway allocations. The
/// workspace must not be used concurrently from two threads.
SimResult run_experiment(const ExperimentConfig& config,
                         ExperimentWorkspace& workspace);

/// This thread's lazily-constructed workspace. Sweep workers route every
/// work unit through it so arenas persist for the lifetime of the worker
/// thread, not one unit.
ExperimentWorkspace& thread_workspace();

}  // namespace rrsim::core

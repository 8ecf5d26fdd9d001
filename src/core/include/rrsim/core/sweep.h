// The campaign-level face of the sweep engine: queue every point of a
// figure or table as a campaign, then run them all as one flat
// (point x replication) work pool on a single worker pool.
//
// This is what the bench binaries build on instead of hand-rolled serial
// loops: each add_*() call queues one sweep point and a completion
// callback that receives the point's aggregate; run() executes all
// replications of all points concurrently (see exec::SweepRunner for the
// scheduling and determinism contract) and fires the callbacks in add()
// order on the calling thread. Results are bit-identical to running the
// equivalent run_*_campaign() calls back-to-back, for any --jobs value.
//
// Relative points share simulations: within one run(), each distinct
// effective run — the point's config with RedundancyScheme::effective(),
// or the same config with scheme NONE — executes once per replication,
// and every point that needs it reads its metrics. Figure 1's five
// schemes at one N share one NONE baseline per seed, and at N = 2 R2,
// R3, R4 and ALL are one run while HALF is the baseline itself. Sharing
// is exact (see RedundancyScheme::effective), so results stay
// bit-identical to back-to-back run_relative_campaign() calls.
//
// Replications execute inside the worker thread's reusable
// ExperimentWorkspace (warm DES slab, schedulers, gateway) and pull their
// job streams from the global workload::TraceCache, so the common-random-
// number streams shared by every point of a figure are generated once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "rrsim/core/campaign.h"
#include "rrsim/core/experiment.h"
#include "rrsim/exec/sweep_runner.h"

namespace rrsim::core {

/// Trace-cache activity of one CampaignSweep::run(), as deltas of the
/// process-global workload::TraceCache counters around the run — the
/// sweep-granularity observability the per-process counters cannot give
/// when several sweeps share one process. Other threads running
/// experiments concurrently would perturb the deltas; the benches that
/// read this run one sweep at a time, which is the supported shape.
struct SweepCacheStats {
  std::uint64_t stream_hits = 0;
  std::uint64_t stream_misses = 0;
  std::uint64_t checkpoint_hits = 0;
  std::uint64_t checkpoint_misses = 0;
  std::uint64_t draw_hits = 0;
  std::uint64_t draw_misses = 0;
  std::uint64_t calibration_hits = 0;
  std::uint64_t calibration_misses = 0;
  std::uint64_t spool_hits = 0;
  std::uint64_t spool_misses = 0;

  friend bool operator==(const SweepCacheStats&,
                         const SweepCacheStats&) = default;
};

/// Simulations of one CampaignSweep::run(), one per work unit: how many
/// the queued points asked for (two per replication of a relative point,
/// one per replication of every other point, one per unit queued through
/// runner()), and how many executed once relative points shared their
/// distinct effective runs.
struct SweepRunStats {
  std::uint64_t requested = 0;
  std::uint64_t executed = 0;
};

/// Deterministic multi-campaign sweep. Not thread-safe; build and run it
/// from one thread.
class CampaignSweep {
 public:
  /// Every queued campaign runs `reps` replications (seed + r pairing, as
  /// in run_*_campaign). jobs = 0 resolves the process default.
  /// Throws std::invalid_argument if reps < 1.
  explicit CampaignSweep(int reps, int jobs = 0);

  int reps() const noexcept { return reps_; }
  int jobs() const noexcept { return runner_.jobs(); }

  /// Queues a paired scheme-vs-NONE campaign (see run_relative_campaign;
  /// config.scheme must not be NONE — throws immediately otherwise, as
  /// for a config with no clusters). Looks up, or queues, the point's two
  /// runs in this batch: `config` with its effective scheme, and `config`
  /// with scheme NONE; points whose runs coincide read one execution.
  /// `done` fires during run(), after both runs' last replication folded,
  /// with every ratio computed in replication order as a standalone
  /// campaign computes it.
  void add_relative(const ExperimentConfig& config,
                    std::function<void(const RelativeMetrics&)> done);

  /// Queues a per-class (r-jobs / n-r-jobs) campaign.
  void add_classified(const ExperimentConfig& config,
                      std::function<void(const ClassifiedCampaign&)> done);

  /// Queues a prediction-accuracy campaign (record_predictions forced on)
  /// over the pooled records of every replication. Throws
  /// std::invalid_argument immediately if config.retain_records is false.
  void add_prediction(const ExperimentConfig& config,
                      std::function<void(const PredictionCampaign&)> done);

  /// Escape hatch for custom work-unit shapes (e.g. per-shape moldable
  /// units): tasks queued here interleave into the same flat pool.
  exec::SweepRunner& runner() noexcept { return runner_; }

  /// Executes everything queued; see exec::SweepRunner::run(). Also
  /// captures this run's trace-cache deltas into last_cache_stats() and
  /// its simulation counts into last_run_stats(). A run() that throws
  /// discards its whole batch, shared runs included.
  void run();

  /// Trace-cache activity of the most recent successful run().
  const SweepCacheStats& last_cache_stats() const noexcept {
    return last_cache_stats_;
  }

  /// Simulations of the most recent successful run().
  const SweepRunStats& last_run_stats() const noexcept {
    return last_run_stats_;
  }

 private:
  /// Per-replication metrics of one shared run, written only by the run's
  /// reductions (on the thread that calls run()).
  using RunMetrics = std::vector<metrics::ScheduleMetrics>;

  /// The queued run of `config` in this batch, queuing it if new.
  std::shared_ptr<const RunMetrics> shared_run(const ExperimentConfig& config);

  int reps_;
  exec::SweepRunner runner_;
  /// This batch's distinct relative-point runs, by effective config.
  std::vector<std::pair<ExperimentConfig, std::shared_ptr<RunMetrics>>> runs_;
  /// Simulations this batch's relative points read from an earlier run.
  std::uint64_t reused_ = 0;
  SweepRunStats last_run_stats_;
  SweepCacheStats last_cache_stats_;
};

}  // namespace rrsim::core

// Campaigns: repeated experiments over random job streams, with the
// paper's paired methodology — each repetition runs a redundancy scheme
// and the NONE baseline on *identical* streams and reports the ratio of
// their metrics, then averages the ratios over repetitions ("relative to
// the scheme using no redundant requests, averaged over 50 experiments").
#pragma once

#include <vector>

#include "rrsim/core/experiment.h"
#include "rrsim/metrics/summary.h"

namespace rrsim::core {

/// Relative (scheme / NONE) schedule metrics, aggregated over repetitions.
struct RelativeMetrics {
  std::size_t reps = 0;
  double rel_avg_stretch = 0.0;   ///< mean over reps of stretch ratio
  double rel_cv_stretch = 0.0;    ///< mean over reps of CV ratio
  double rel_max_stretch = 0.0;   ///< mean over reps of max-stretch ratio
  double rel_avg_turnaround = 0.0;
  double win_rate = 0.0;  ///< fraction of reps where the scheme's average
                          ///< stretch beat the baseline's
  double worst_rel_stretch = 0.0;  ///< largest (worst) stretch ratio seen
  std::vector<double> per_rep_rel_stretch;  ///< one ratio per repetition
};

/// Runs `reps` paired repetitions of `config` (with its scheme) against
/// the NONE baseline. Repetition r uses seed config.seed + r for both
/// runs, so the job streams are identical within a pair. The scheme in
/// `config` must not be NONE.
///
/// `jobs` is the worker-thread count for the repetitions (0 = the process
/// default: --jobs flag, RRSIM_JOBS, or hardware concurrency — see
/// rrsim/exec/jobs.h). Results are bit-identical for any
/// `jobs` value: repetitions are seeded by index and reduced in order.
/// The same contract applies to the other campaigns below.
RelativeMetrics run_relative_campaign(const ExperimentConfig& config,
                                      int reps, int jobs = 0);

/// Absolute per-class metrics averaged over repetitions (Fig 4: average
/// stretch of jobs using redundancy vs. jobs not using it).
struct ClassifiedCampaign {
  std::size_t reps = 0;
  double avg_stretch_all = 0.0;
  double avg_stretch_redundant = 0.0;      ///< "r jobs" (0 when none exist)
  double avg_stretch_non_redundant = 0.0;  ///< "n-r jobs"
  std::size_t redundant_jobs = 0;          ///< total r jobs over all reps
  std::size_t non_redundant_jobs = 0;
};

/// Runs `reps` repetitions of `config` and averages the per-class average
/// stretches over the repetitions that have jobs of that class.
ClassifiedCampaign run_classified_campaign(const ExperimentConfig& config,
                                           int reps, int jobs = 0);

/// Prediction-accuracy study (Table 4), averaged over repetitions.
struct PredictionCampaign {
  std::size_t reps = 0;
  metrics::PredictionAccuracy all;
  metrics::PredictionAccuracy redundant;
  metrics::PredictionAccuracy non_redundant;
};

/// Runs `reps` repetitions with prediction recording forced on and
/// aggregates the over-estimation ratios across all repetitions' jobs.
PredictionCampaign run_prediction_campaign(const ExperimentConfig& config,
                                           int reps, int jobs = 0);

}  // namespace rrsim::core

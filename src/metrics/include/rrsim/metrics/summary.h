// Schedule-quality metrics over a set of job records: the paper's two
// headline metrics (average stretch, coefficient of variation of
// stretches) plus the robustness variants it reports in prose (average
// turnaround, maximum stretch), computed overall and split by job class
// (redundant vs. non-redundant).
#pragma once

#include <optional>
#include <span>

#include "rrsim/metrics/record.h"

namespace rrsim::metrics {

/// Aggregate metrics over one simulation's completed jobs.
struct ScheduleMetrics {
  std::size_t jobs = 0;
  double avg_stretch = 0.0;
  double cv_stretch_percent = 0.0;  ///< fairness: stddev/mean of stretches
  double max_stretch = 0.0;         ///< alternative fairness metric
  double avg_turnaround = 0.0;
  double avg_wait = 0.0;
};

/// Metrics for the whole population and for each class (Fig 4 needs the
/// split; r = jobs using redundant requests, nr = jobs not using them).
struct ClassifiedMetrics {
  ScheduleMetrics all;
  ScheduleMetrics redundant;      ///< "r jobs"
  ScheduleMetrics non_redundant;  ///< "n-r jobs"
};

/// Computes metrics over `records`; empty input gives all-zero metrics.
ScheduleMetrics compute_metrics(std::span<const JobRecord> records);

/// Computes the per-class split.
ClassifiedMetrics compute_classified_metrics(
    std::span<const JobRecord> records);

/// Prediction-accuracy statistics (Table 4): over-estimation ratio
/// predicted_wait / actual_wait per job, for jobs with a recorded
/// prediction and an actual wait above `min_wait` seconds (ratios are
/// undefined at zero wait; the paper's CBF predictor never predicts a
/// start before `now`, so predicted waits are >= 0).
struct PredictionAccuracy {
  std::size_t jobs = 0;          ///< jobs contributing a ratio
  double avg_ratio = 0.0;        ///< mean over-estimation factor
  double cv_ratio_percent = 0.0; ///< CV of the ratios, percent
};

/// `which`: compute over all jobs (nullopt), only redundant (true), or
/// only non-redundant (false).
PredictionAccuracy compute_prediction_accuracy(
    std::span<const JobRecord> records,
    std::optional<bool> redundant_only = std::nullopt,
    double min_wait = 1.0);

}  // namespace rrsim::metrics

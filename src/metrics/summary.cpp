#include "rrsim/metrics/summary.h"

#include <algorithm>

#include "rrsim/util/stats.h"

namespace rrsim::metrics {

namespace {

template <typename Filter>
ScheduleMetrics compute_filtered(std::span<const JobRecord> records,
                                 Filter&& keep) {
  util::OnlineStats stretch;
  util::OnlineStats turnaround;
  util::OnlineStats wait;
  for (const JobRecord& r : records) {
    if (!keep(r)) continue;
    stretch.add(stretch_of(r));
    turnaround.add(r.turnaround());
    wait.add(r.wait_time());
  }
  ScheduleMetrics m;
  m.jobs = stretch.count();
  if (m.jobs == 0) return m;
  m.avg_stretch = stretch.mean();
  m.cv_stretch_percent = stretch.cv_percent();
  m.max_stretch = stretch.max();
  m.avg_turnaround = turnaround.mean();
  m.avg_wait = wait.mean();
  return m;
}

}  // namespace

ScheduleMetrics compute_metrics(std::span<const JobRecord> records) {
  return compute_filtered(records, [](const JobRecord&) { return true; });
}

ClassifiedMetrics compute_classified_metrics(
    std::span<const JobRecord> records) {
  ClassifiedMetrics out;
  out.all = compute_metrics(records);
  out.redundant =
      compute_filtered(records, [](const JobRecord& r) { return r.redundant; });
  out.non_redundant = compute_filtered(
      records, [](const JobRecord& r) { return !r.redundant; });
  return out;
}

PredictionAccuracy compute_prediction_accuracy(
    std::span<const JobRecord> records, std::optional<bool> redundant_only,
    double min_wait) {
  util::OnlineStats ratios;
  for (const JobRecord& r : records) {
    if (redundant_only && r.redundant != *redundant_only) continue;
    if (!r.has_prediction()) continue;
    const double actual_wait = r.wait_time();
    if (actual_wait < min_wait) continue;
    const double predicted_wait =
        std::max(0.0, r.predicted_start - r.submit_time);
    ratios.add(predicted_wait / actual_wait);
  }
  PredictionAccuracy acc;
  acc.jobs = ratios.count();
  if (acc.jobs == 0) return acc;
  acc.avg_ratio = ratios.mean();
  acc.cv_ratio_percent = ratios.cv_percent();
  return acc;
}

}  // namespace rrsim::metrics

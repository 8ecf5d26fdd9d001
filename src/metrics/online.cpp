#include "rrsim/metrics/online.h"

#include <algorithm>

namespace rrsim::metrics {

// --- P2Quantile ------------------------------------------------------------

P2Quantile::P2Quantile(double q) : q_(q) {
  rate_ = {0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0};
}

void P2Quantile::add(double x) noexcept {
  if (n_ < 5) {
    heights_[n_++] = x;
    if (n_ == 5) {
      std::sort(heights_.begin(), heights_.end());
      for (std::size_t i = 0; i < 5; ++i) {
        pos_[i] = static_cast<double>(i + 1);
        desired_[i] = 1.0 + 4.0 * rate_[i];
      }
    }
    return;
  }
  // Locate the cell containing x, stretching the extreme markers.
  std::size_t k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }
  for (std::size_t i = k + 1; i < 5; ++i) pos_[i] += 1.0;
  for (std::size_t i = 0; i < 5; ++i) desired_[i] += rate_[i];
  ++n_;
  // Nudge the three interior markers toward their desired positions with
  // the piecewise-parabolic (P^2) formula, falling back to linear when
  // the parabola would break the height ordering.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired_[i] - pos_[i];
    if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
        (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
      const double s = d < 0.0 ? -1.0 : 1.0;
      const double hp = (pos_[i + 1] - pos_[i]);
      const double hm = (pos_[i] - pos_[i - 1]);
      const double parabolic =
          heights_[i] +
          s / (pos_[i + 1] - pos_[i - 1]) *
              ((hm + s) * (heights_[i + 1] - heights_[i]) / hp +
               (hp - s) * (heights_[i] - heights_[i - 1]) / hm);
      if (heights_[i - 1] < parabolic && parabolic < heights_[i + 1]) {
        heights_[i] = parabolic;
      } else {
        const std::size_t j = d < 0.0 ? i - 1 : i + 1;
        heights_[i] += s * (heights_[j] - heights_[i]) /
                       (pos_[j] - pos_[i]);
      }
      pos_[i] += s;
    }
  }
}

double P2Quantile::value() const noexcept {
  if (n_ == 0) return 0.0;
  if (n_ >= 5) return heights_[2];
  // Exact small-sample quantile, same interpolation as util::quantile.
  std::array<double, 5> sorted = heights_;
  std::sort(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(n_));
  const double rank = q_ * static_cast<double>(n_ - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, n_ - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

// --- OnlineAccumulator -----------------------------------------------------

OnlineAccumulator::OnlineAccumulator(double min_wait) : min_wait_(min_wait) {}

void OnlineAccumulator::add(const JobRecord& r) noexcept {
  // Mirror compute_filtered exactly: one add per series, in this order,
  // per class the record belongs to — independent accumulators see the
  // same value sequences the batch path feeds them.
  const double stretch = stretch_of(r);
  const double turnaround = r.turnaround();
  const double wait = r.wait_time();
  all_.stretch.add(stretch);
  all_.turnaround.add(turnaround);
  all_.wait.add(wait);
  ClassAcc& cls = r.redundant ? redundant_ : non_redundant_;
  cls.stretch.add(stretch);
  cls.turnaround.add(turnaround);
  cls.wait.add(wait);
  if (r.has_prediction() && wait >= min_wait_) {
    const double predicted_wait =
        std::max(0.0, r.predicted_start - r.submit_time);
    const double ratio = predicted_wait / wait;
    ratio_all_.add(ratio);
    (r.redundant ? ratio_redundant_ : ratio_non_redundant_).add(ratio);
  }
  p50_.add(stretch);
  p90_.add(stretch);
  p99_.add(stretch);
}

void OnlineAccumulator::reset() noexcept {
  *this = OnlineAccumulator(min_wait_);
}

ScheduleMetrics OnlineAccumulator::to_metrics(const ClassAcc& acc) noexcept {
  ScheduleMetrics m;
  m.jobs = acc.stretch.count();
  if (m.jobs == 0) return m;
  m.avg_stretch = acc.stretch.mean();
  m.cv_stretch_percent = acc.stretch.cv_percent();
  m.max_stretch = acc.stretch.max();
  m.avg_turnaround = acc.turnaround.mean();
  m.avg_wait = acc.wait.mean();
  return m;
}

ScheduleMetrics OnlineAccumulator::metrics() const noexcept {
  return to_metrics(all_);
}

ClassifiedMetrics OnlineAccumulator::classified() const noexcept {
  ClassifiedMetrics out;
  out.all = to_metrics(all_);
  out.redundant = to_metrics(redundant_);
  out.non_redundant = to_metrics(non_redundant_);
  return out;
}

PredictionAccuracy OnlineAccumulator::prediction(
    std::optional<bool> redundant_only) const noexcept {
  const util::OnlineStats& ratios =
      !redundant_only ? ratio_all_
                      : (*redundant_only ? ratio_redundant_
                                         : ratio_non_redundant_);
  PredictionAccuracy acc;
  acc.jobs = ratios.count();
  if (acc.jobs == 0) return acc;
  acc.avg_ratio = ratios.mean();
  acc.cv_ratio_percent = ratios.cv_percent();
  return acc;
}

}  // namespace rrsim::metrics

#include "rrsim/metrics/queue_tracker.h"

#include <algorithm>
#include <stdexcept>

namespace rrsim::metrics {

QueueTracker::QueueTracker(des::Simulation& sim, std::vector<Probe> probes,
                           double interval, double horizon)
    : sim_(sim),
      probes_(std::move(probes)),
      interval_(interval),
      horizon_(horizon),
      series_(probes_.size()) {
  if (interval_ <= 0.0) {
    throw std::invalid_argument("sampling interval must be > 0");
  }
  if (horizon_ < 0.0) throw std::invalid_argument("horizon must be >= 0");
  if (interval_ <= horizon_) {
    sim_.schedule_in(interval_, [this] { sample(); },
                     des::Priority::kControl);
  }
}

void QueueTracker::sample() {
  const double now = sim_.now();
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    series_[i].emplace_back(now, probes_[i]());
  }
  if (now + interval_ <= horizon_) {
    sim_.schedule_in(interval_, [this] { sample(); },
                     des::Priority::kControl);
  }
}

std::size_t QueueTracker::max_length(std::size_t i) const {
  std::size_t best = 0;
  for (const auto& [t, len] : series_.at(i)) best = std::max(best, len);
  return best;
}

const std::vector<std::pair<double, std::size_t>>& QueueTracker::series(
    std::size_t i) const {
  return series_.at(i);
}

double QueueTracker::growth_per_hour(std::size_t i) const {
  const auto& s = series_.at(i);
  if (s.size() < 2) return 0.0;
  // Simple least-squares slope of length vs. time.
  double sum_t = 0.0;
  double sum_y = 0.0;
  double sum_tt = 0.0;
  double sum_ty = 0.0;
  for (const auto& [t, len] : s) {
    const auto y = static_cast<double>(len);
    sum_t += t;
    sum_y += y;
    sum_tt += t * t;
    sum_ty += t * y;
  }
  const auto n = static_cast<double>(s.size());
  const double denom = n * sum_tt - sum_t * sum_t;
  if (denom == 0.0) return 0.0;
  const double slope_per_sec = (n * sum_ty - sum_t * sum_y) / denom;
  return slope_per_sec * 3600.0;
}

}  // namespace rrsim::metrics

// Per-job outcome records — the raw material for every metric in the
// paper: stretch, turnaround, fairness (CV of stretches), and the
// prediction-accuracy ratios of Section 5. One record type serves both
// record modes: a retained run appends it to SimResult::records, a
// streaming run folds it into an OnlineAccumulator (online.h).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace rrsim::metrics {

/// Outcome of one *grid* job (one user job, however many replicas it had).
/// The narrow fields hold what the gateway can produce: grid ids above
/// 2^32 - 1 are rejected at submit, and clusters number at most 2^20.
struct JobRecord {
  double submit_time = 0.0;
  double start_time = 0.0;
  double finish_time = 0.0;
  double actual_time = 1.0;
  double requested_time = 1.0;
  /// Queue-wait prediction made at submit time (min over replicas for
  /// redundant jobs); NaN when none was recorded (predictions are real
  /// start times, never NaN themselves).
  double predicted_start = std::numeric_limits<double>::quiet_NaN();
  std::uint32_t grid_id = 0;
  std::uint32_t origin_cluster = 0;
  std::uint32_t winner_cluster = 0;  ///< where it actually ran
  std::int32_t nodes = 1;
  std::uint16_t replicas = 1;  ///< requests the user *sent* (intent)
  std::uint16_t replicas_delivered = 1;  ///< requests that actually
                                         ///< reached a scheduler
                                         ///< (drops/limit rejections
                                         ///< excluded)
  bool redundant = false;  ///< did the user send redundant requests?

  double wait_time() const noexcept { return start_time - submit_time; }
  double turnaround() const noexcept { return finish_time - submit_time; }
  bool has_prediction() const noexcept { return !std::isnan(predicted_start); }
};
static_assert(sizeof(JobRecord) <= 72, "JobRecord grew past 72 bytes");

using JobRecords = std::vector<JobRecord>;

/// Stretch (slowdown): turnaround / execution time, with the standard 1 s
/// clamp on the denominator so sub-second jobs cannot blow the metric up.
inline double stretch_of(const JobRecord& r) noexcept {
  return r.turnaround() / std::max(r.actual_time, 1.0);
}

}  // namespace rrsim::metrics

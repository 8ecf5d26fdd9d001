// Streaming (constant-memory) metrics: everything the batch pipeline in
// summary.h computes from a retained JobRecord vector, computed instead
// from a one-pass accumulator fed the same JobRecord per finished job.
// Feeding records in the same order the gateway would have appended them
// reproduces the batch results bit-identically for every mean/CV/max (the
// batch path is itself a sequence of util::OnlineStats::add calls in
// record order); the quantile sketch is the one genuinely approximate
// extension.
//
// This is what unlocks the ROADMAP's grid-scale campaigns: a 10^6-job run
// needs ~500 bytes of metric state instead of ~70 MB of records.
#pragma once

#include <array>
#include <cstddef>
#include <optional>

#include "rrsim/metrics/record.h"
#include "rrsim/metrics/summary.h"
#include "rrsim/util/stats.h"

namespace rrsim::metrics {

/// Single-quantile streaming estimator (Jain & Chlamtac's P² algorithm):
/// five markers tracking the target quantile and its neighbourhood,
/// adjusted with a piecewise-parabolic update — O(1) memory and time per
/// observation. Exact for the first five observations; afterwards the
/// estimate converges with O(1/sqrt(n)) rank error on smooth
/// distributions.
class P2Quantile {
 public:
  /// `q` in (0, 1).
  explicit P2Quantile(double q);

  void add(double x) noexcept;

  /// Current estimate. With fewer than five observations, the exact
  /// linear-interpolated quantile of what was seen (matching
  /// util::quantile); 0 if empty.
  double value() const noexcept;

  std::size_t count() const noexcept { return n_; }
  double quantile() const noexcept { return q_; }

  /// Approximate merge: replays the other sketch's marker heights (its
  /// five-point distribution summary) as observations. Exact while the
  /// other side has fewer than five observations (the markers then *are*
  /// the raw sample); a coarse but order-preserving summary afterwards.
  void merge_from(const P2Quantile& other) noexcept;

 private:
  double q_;
  std::size_t n_ = 0;
  std::array<double, 5> heights_{};   // marker heights, ascending
  std::array<double, 5> pos_{};       // marker positions (1-based ranks)
  std::array<double, 5> desired_{};   // desired positions
  std::array<double, 5> rate_{};      // desired-position increments
};

/// One-pass replacement for compute_metrics / compute_classified_metrics /
/// compute_prediction_accuracy over a retained record vector. Feed every
/// finished job once, in finish order; results for mean/CV/max are then
/// bit-identical to the batch functions over the records that would have
/// been retained. merge() combines per-repetition accumulators (parallel
/// Welford merge — exact counts/max, means within rounding of the pooled
/// sequential result; sketches are combined approximately by replaying
/// the other side's five marker heights).
class OnlineAccumulator {
 public:
  /// `min_wait`: the prediction-ratio wait threshold, matching
  /// compute_prediction_accuracy's default of 1 s.
  explicit OnlineAccumulator(double min_wait = 1.0);

  void add(const JobRecord& r) noexcept;

  void merge(const OnlineAccumulator& other) noexcept;

  /// Back to the just-constructed state (min_wait kept).
  void reset() noexcept;

  /// Finished jobs accumulated so far.
  std::size_t jobs() const noexcept { return all_.stretch.count(); }

  /// Equivalent of compute_metrics over the fed records.
  ScheduleMetrics metrics() const noexcept;

  /// Equivalent of compute_classified_metrics.
  ClassifiedMetrics classified() const noexcept;

  /// Equivalent of compute_prediction_accuracy(records, redundant_only,
  /// min_wait).
  PredictionAccuracy prediction(
      std::optional<bool> redundant_only = std::nullopt) const noexcept;

  /// Streaming stretch-distribution extensions (approximate, see class
  /// comment).
  double stretch_p50() const noexcept { return p50_.value(); }
  double stretch_p90() const noexcept { return p90_.value(); }
  double stretch_p99() const noexcept { return p99_.value(); }

 private:
  struct ClassAcc {
    util::OnlineStats stretch;
    util::OnlineStats turnaround;
    util::OnlineStats wait;
  };

  static ScheduleMetrics to_metrics(const ClassAcc& acc) noexcept;

  double min_wait_;
  ClassAcc all_;
  ClassAcc redundant_;
  ClassAcc non_redundant_;
  util::OnlineStats ratio_all_;
  util::OnlineStats ratio_redundant_;
  util::OnlineStats ratio_non_redundant_;
  P2Quantile p50_{0.50};
  P2Quantile p90_{0.90};
  P2Quantile p99_{0.99};
};

}  // namespace rrsim::metrics

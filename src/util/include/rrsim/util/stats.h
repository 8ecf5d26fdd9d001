// Descriptive statistics used throughout the metrics pipeline.
#pragma once

#include <cstddef>
#include <span>

namespace rrsim::util {

/// Streaming mean/variance accumulator (Welford's algorithm), numerically
/// stable for the long, skewed stretch series the simulator produces.
class OnlineStats {
 public:
  /// Adds one observation.
  void add(double x) noexcept;

  /// Number of observations added.
  std::size_t count() const noexcept { return n_; }

  /// Arithmetic mean; 0 if empty.
  double mean() const noexcept { return n_ ? mean_ : 0.0; }

  /// Unbiased sample variance; 0 if fewer than two observations.
  double variance() const noexcept;

  /// Sample standard deviation.
  double stddev() const noexcept;

  /// Coefficient of variation in percent (stddev / mean * 100), the paper's
  /// fairness metric; 0 if the mean is 0 or the sample is empty.
  double cv_percent() const noexcept;

  /// Largest observation; -inf if empty.
  double max() const noexcept { return max_; }

  /// Smallest observation; +inf if empty.
  double min() const noexcept { return min_; }

  /// Sum of all observations.
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double max_ = -1.0 / 0.0;
  double min_ = 1.0 / 0.0;
};

/// Summary of a sample, computed in one pass over a span.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double cv_percent = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Computes the Summary of `xs`; all-zero Summary for an empty span.
Summary summarize(std::span<const double> xs) noexcept;

/// Linear-interpolated quantile (q in [0, 1]) of `xs`; `xs` is copied and
/// sorted internally. Returns 0 for an empty span.
double quantile(std::span<const double> xs, double q);

}  // namespace rrsim::util

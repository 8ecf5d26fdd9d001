// The Binomial Method Batch Predictor (Brevik, Nurmi & Wolski, PPoPP
// 2006) — the paper's reference [2] and its suggested future direction
// for Section 5: statistical queue-wait forecasts instead of
// reservation-based ones.
//
// Given n historical waits treated as an i.i.d. sample, the k-th order
// statistic is an upper bound on the population's q-quantile with
// confidence c whenever P[Binomial(n, q) < k] >= c. The predictor keeps
// a sliding window of observed waits and answers "with confidence c,
// at most a fraction 1-q of jobs will wait longer than B".
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

namespace rrsim::forecast {

/// P[X <= k] for X ~ Binomial(n, p). Exact summation in log space;
/// numerically solid for the window sizes predictors use (n <= ~1e5).
/// Throws std::invalid_argument unless 0 <= p <= 1.
double binomial_cdf(std::size_t k, std::size_t n, double p);

/// Smallest 1-based order-statistic index k such that the k-th smallest
/// of n samples upper-bounds the q-quantile with confidence >= c, or
/// nullopt if even the sample maximum (k = n) does not reach confidence c
/// (history too small). Throws std::invalid_argument unless q and c are
/// in (0, 1).
std::optional<std::size_t> bmbp_order_statistic(std::size_t n, double q,
                                                double c);

/// Sliding-window BMBP: observe waits, query the current bound.
class BmbpPredictor {
 public:
  /// Predicts an upper bound on the `quantile`-quantile of waits with
  /// the given `confidence`, over a window of the most recent
  /// `max_history` observations. Throws std::invalid_argument on
  /// parameters outside (0, 1) or zero history.
  BmbpPredictor(double quantile = 0.95, double confidence = 0.95,
                std::size_t max_history = 512);

  /// Adds an observed wait (>= 0) to the window. Throws
  /// std::invalid_argument on a negative or NaN wait.
  void observe(double wait);

  /// Current upper bound, or nullopt while the window is too small to
  /// support the requested confidence. The order-statistic index is
  /// computed once per window size; the element is then selected with
  /// std::nth_element, O(window) per call.
  std::optional<double> upper_bound() const;

  std::size_t history_size() const noexcept { return window_.size(); }
  double quantile() const noexcept { return quantile_; }
  double confidence() const noexcept { return confidence_; }

 private:
  double quantile_;
  double confidence_;
  std::size_t max_history_;
  std::deque<double> window_;
  /// order_stat_[n]: the 1-based index bmbp_order_statistic gives for a
  /// window of n waits, 0 when there is no bound, kUnknown until asked.
  mutable std::vector<std::size_t> order_stat_;
  mutable std::vector<double> select_;  // reused copy nth_element reorders
};

}  // namespace rrsim::forecast

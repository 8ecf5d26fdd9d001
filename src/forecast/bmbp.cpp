#include "rrsim/forecast/bmbp.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace rrsim::forecast {
namespace {

constexpr std::size_t kUnknown = static_cast<std::size_t>(-1);

}  // namespace

double binomial_cdf(std::size_t k, std::size_t n, double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("binomial p must be in [0, 1]");
  }
  if (k >= n) return 1.0;
  if (p == 0.0) return 1.0;
  if (p == 1.0) return 0.0;  // k < n, and all mass sits at X = n
  const double log_p = std::log(p);
  const double log_1p = std::log1p(-p);
  const double lg_n1 = std::lgamma(static_cast<double>(n) + 1.0);
  double sum = 0.0;
  for (std::size_t i = 0; i <= k; ++i) {
    const auto di = static_cast<double>(i);
    const auto dni = static_cast<double>(n - i);
    const double log_term = lg_n1 - std::lgamma(di + 1.0) -
                            std::lgamma(dni + 1.0) + di * log_p +
                            dni * log_1p;
    sum += std::exp(log_term);
  }
  return std::min(sum, 1.0);
}

std::optional<std::size_t> bmbp_order_statistic(std::size_t n, double q,
                                                double c) {
  if (!(q > 0.0 && q < 1.0) || !(c > 0.0 && c < 1.0)) {
    throw std::invalid_argument("quantile and confidence must be in (0, 1)");
  }
  if (n == 0) return std::nullopt;
  // Want the smallest k (1-based) with P[Binomial(n, q) < k] >= c,
  // i.e. binomial_cdf(k - 1, n, q) >= c. The CDF is monotone in k:
  // binary search.
  std::size_t lo = 1;
  std::size_t hi = n;
  if (binomial_cdf(n - 1, n, q) < c) return std::nullopt;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (binomial_cdf(mid - 1, n, q) >= c) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

BmbpPredictor::BmbpPredictor(double quantile, double confidence,
                             std::size_t max_history)
    : quantile_(quantile),
      confidence_(confidence),
      max_history_(max_history) {
  if (!(quantile_ > 0.0 && quantile_ < 1.0) ||
      !(confidence_ > 0.0 && confidence_ < 1.0)) {
    throw std::invalid_argument("quantile and confidence must be in (0, 1)");
  }
  if (max_history_ == 0) {
    throw std::invalid_argument("history window must be >= 1");
  }
}

void BmbpPredictor::observe(double wait) {
  if (!(wait >= 0.0)) {
    throw std::invalid_argument("waits must be >= 0 (and not NaN)");
  }
  window_.push_back(wait);
  if (window_.size() > max_history_) window_.pop_front();
}

std::optional<double> BmbpPredictor::upper_bound() const {
  // The index depends only on (n, q, c), and the window only ever takes
  // sizes 0..max_history_, so each size pays the binomial search once.
  const std::size_t n = window_.size();
  if (order_stat_.size() <= n) order_stat_.resize(n + 1, kUnknown);
  std::size_t& k = order_stat_[n];
  if (k == kUnknown) {
    k = bmbp_order_statistic(n, quantile_, confidence_).value_or(0);
  }
  if (k == 0) return std::nullopt;
  select_.assign(window_.begin(), window_.end());
  const auto kth = select_.begin() + static_cast<std::ptrdiff_t>(k - 1);
  std::nth_element(select_.begin(), kth, select_.end());
  return *kth;
}

}  // namespace rrsim::forecast

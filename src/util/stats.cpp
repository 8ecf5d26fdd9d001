#include "rrsim/util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace rrsim::util {

void OnlineStats::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  max_ = std::max(max_, x);
  min_ = std::min(min_, x);
}

double OnlineStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double OnlineStats::cv_percent() const noexcept {
  const double m = mean();
  return m != 0.0 ? stddev() / m * 100.0 : 0.0;
}

Summary summarize(std::span<const double> xs) noexcept {
  OnlineStats acc;
  for (const double x : xs) acc.add(x);
  Summary s;
  s.count = acc.count();
  if (s.count == 0) return s;
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.cv_percent = acc.cv_percent();
  s.min = acc.min();
  s.max = acc.max();
  return s;
}

double quantile(std::span<const double> xs, double q) {
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile q in [0,1]");
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

}  // namespace rrsim::util

// Host-speed reference: a fixed computation that shares no code with rrsim,
// timed right before each measured phase. On a shared host the speed
// available to one process drifts by tens of percent over minutes (other
// tenants' load on shared cores and caches); the reference slows down with
// it, so dividing a phase's host time by the reference's time taken at the
// same moment removes most of that drift, while a change to rrsim moves
// the phase and not the reference.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Nominal host time of one reference computation: a scaled time is the
/// phase's host time on a host where the reference takes this long (about
/// the 4-vCPU Xeon VM the benchmark was tuned on, which measured
/// 0.021-0.033 s as its speed drifted).
constexpr double kReferenceSeconds = 0.025;

namespace detail {

// Event-queue-like heap churn plus a sort: branchy, cache-resident work of
// the kind the simulator does, on fixed data.
inline double reference_once() {
  static const std::vector<double> data = [] {
    std::vector<double> v(200000);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (double& d : v) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      d = static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    return v;
  }();
  const Clock::time_point start = Clock::now();
  std::priority_queue<double, std::vector<double>, std::greater<>> heap;
  for (const double d : data) {
    heap.push(d);
    if (heap.size() > 32768) heap.pop();
  }
  std::vector<double> sorted(data.begin(), data.begin() + 100000);
  std::sort(sorted.begin(), sorted.end());
  const double seconds = seconds_since(start);
  // Keep the work observable.
  static thread_local volatile double sink = 0.0;
  sink = heap.top() + sorted[sorted.size() / 2];
  return seconds;
}

}  // namespace detail

/// Host seconds of one reference computation, run concurrently on
/// `threads` threads (the calling thread included) and averaged, so a
/// workload that computes on two cores is normalized by both.
inline double reference_seconds(int threads) {
  if (threads <= 1) return detail::reference_once();
  std::vector<double> times(static_cast<std::size_t>(threads), 0.0);
  std::vector<std::thread> helpers;
  for (int t = 1; t < threads; ++t) {
    helpers.emplace_back([&times, t] {
      times[static_cast<std::size_t>(t)] = detail::reference_once();
    });
  }
  times[0] = detail::reference_once();
  for (std::thread& h : helpers) h.join();
  double sum = 0.0;
  for (const double s : times) sum += s;
  return sum / static_cast<double>(threads);
}

}  // namespace perfbench

// Queue-length observation over simulated time — used for the Section 4.1
// checks: queue growth per hour at the raw peak arrival rate, and the
// max-queue-size comparison between the ALL scheme and no redundancy.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "rrsim/des/simulation.h"

namespace rrsim::metrics {

/// Periodically samples a set of queue-length probes on a simulation.
class QueueTracker {
 public:
  /// A probe returns the current queue length of one cluster.
  // rrsim-lint-allow(std-function-member): installed once per run and
  // called once per sampling interval (seconds of simulated time apart);
  // the std::size_t() signature rules out InlineFunction (void() only).
  using Probe = std::function<std::size_t()>;

  /// Samples every `interval` simulated seconds, starting at `interval`,
  /// while the simulation keeps running. Throws std::invalid_argument on
  /// non-positive interval.
  QueueTracker(des::Simulation& sim, std::vector<Probe> probes,
               double interval, double horizon);

  /// Largest queue length ever sampled for cluster `i`.
  std::size_t max_length(std::size_t i) const;

  /// Sampled series for cluster `i`: (time, length) pairs.
  const std::vector<std::pair<double, std::size_t>>& series(
      std::size_t i) const;

  /// Least-squares growth rate of cluster `i`'s queue length, in jobs per
  /// hour (the §4.1 "~700 jobs/hour" figure).
  double growth_per_hour(std::size_t i) const;

 private:
  void sample();

  des::Simulation& sim_;
  std::vector<Probe> probes_;
  double interval_;
  double horizon_;
  std::vector<std::vector<std::pair<double, std::size_t>>> series_;
};

}  // namespace rrsim::metrics

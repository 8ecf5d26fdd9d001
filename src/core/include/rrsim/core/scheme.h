// The paper's redundant request schemes: R2, R3, R4 (fixed counts), HALF
// (requests to half the clusters), ALL (requests to every cluster), and
// NONE (the baseline every result is reported relative to).
#pragma once

#include <cstddef>
#include <string>

namespace rrsim::core {

/// How many clusters a redundant job sends requests to.
struct RedundancyScheme {
  enum class Kind { kNone, kFixed, kHalf, kAll };

  Kind kind = Kind::kNone;
  int k = 1;  ///< request count for Kind::kFixed

  static RedundancyScheme none() noexcept { return {Kind::kNone, 1}; }
  /// R<k>: requests to k clusters total (including the local one).
  /// Throws std::invalid_argument if k < 1.
  static RedundancyScheme fixed(int k);
  static RedundancyScheme half() noexcept { return {Kind::kHalf, 0}; }
  static RedundancyScheme all() noexcept { return {Kind::kAll, 0}; }

  /// Parses "NONE", "R<k>" (e.g. "R2"), "HALF", "ALL".
  static RedundancyScheme parse(const std::string& name);

  /// Total number of requests per job on an N-cluster platform, >= 1 and
  /// <= N. HALF is ceil(N/2); R<k> saturates at N.
  std::size_t degree(std::size_t n_clusters) const;

  /// The scheme a run on an N-cluster platform actually executes: none()
  /// at degree <= 1, fixed(degree(N)) otherwise, so schemes that send the
  /// same number of requests compare equal (R2, R3, R4 and ALL at N = 2).
  /// Exact: both kernels read the scheme only through degree(N) (the one
  /// run path, experiment.cpp) and is_none() (the arrival pump's
  /// redundancy coin, the draw-segment key). At degree <= 1 the
  /// submit path clears job.redundant and never places a replica, so the
  /// coins an active scheme draws have no observer; a run with the
  /// effective scheme is identical in every record, counter and queue
  /// statistic. Throws std::invalid_argument if n_clusters == 0.
  RedundancyScheme effective(std::size_t n_clusters) const;

  /// Canonical display name ("NONE", "R2", "HALF", "ALL").
  std::string name() const;

  bool is_none() const noexcept { return kind == Kind::kNone; }

  friend bool operator==(const RedundancyScheme&,
                         const RedundancyScheme&) = default;
};

}  // namespace rrsim::core

// Replica placement: which remote clusters receive a job's redundant
// requests. The paper's default picks remote clusters uniformly at random
// ("users blindly send requests to all clusters on which they have
// accounts"); Table 2 uses a heavily biased distribution where cluster
// C1 is twice as likely as C2, which is twice as likely as C3, and so on.
// LeastLoadedPlacement models the informed choice a metascheduler would
// make (Subramani et al., the paper's ref [5]): pick the remotes with the
// shortest queues.
//
// A redundant job picks d - 1 remotes with d much smaller than the
// cluster count N, so uniform placement costs O(d) per job where the job
// fits every cluster: it draws from the implicit pool of every cluster but
// the origin instead of listing it. Only least-loaded placement reads
// queue lengths, and only for it does the caller snapshot them.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "rrsim/util/rng.h"

namespace rrsim::grid {

/// What a placement policy may observe about the platform at submission
/// time.
struct PlatformView {
  /// Cluster sizes by id.
  const std::vector<int>& cluster_sizes;
  /// The smallest entry of cluster_sizes: a job at most this wide fits
  /// every cluster.
  int smallest_cluster;
  /// Live queue lengths by id. The caller fills them only for a policy
  /// that reads_queue_lengths(), and only where it sees every cluster at
  /// one instant; otherwise empty (least-loaded then falls back to the
  /// uniform choice).
  const std::vector<std::size_t>& queue_lengths;
};

/// Strategy for choosing the remote targets of redundant requests.
/// choose_remotes() is const and keeps its scratch on the stack or in
/// `targets`, so PDES partitions may call one policy concurrently.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Appends up to `count` distinct remote clusters (never `origin`) to
  /// `targets`, chosen from those whose size in `view.cluster_sizes` is
  /// >= `nodes` (a replica must be runnable where it is sent — the paper's
  /// heterogeneous experiment sizes jobs to their origin cluster and only
  /// replicates where they fit). Appends fewer than `count` ids if not
  /// enough clusters qualify. Entries already in `targets` are kept and
  /// not consulted; the vector may grow past its final size while the
  /// policy works.
  virtual void choose_remotes(std::size_t origin, int nodes,
                              const PlatformView& view, std::size_t count,
                              util::Rng& rng,
                              std::vector<std::size_t>& targets) const = 0;

  /// True if the policy reads `PlatformView::queue_lengths`; the caller
  /// snapshots every cluster's queue length only then.
  virtual bool reads_queue_lengths() const { return false; }

  virtual std::string name() const = 0;
};

/// Uniform random choice among eligible remote clusters (paper default):
/// a partial Fisher-Yates shuffle of the eligible clusters in id order,
/// one rng.below() call per pick. When the job fits every cluster and
/// few clusters are picked (picks^2 <= N - 1, at most 32) the shuffle runs
/// over the implicit pool and stores only the slots it displaces, on the
/// stack: O(picks^2), not O(N), with the same draws and the same picks.
class UniformPlacement final : public PlacementPolicy {
 public:
  void choose_remotes(std::size_t origin, int nodes, const PlatformView& view,
                      std::size_t count, util::Rng& rng,
                      std::vector<std::size_t>& targets) const override;
  std::string name() const override { return "uniform"; }
};

/// Geometrically biased choice (Table 2): eligible remote cluster with the
/// i-th smallest id has weight 2^-i, so C1 is twice as likely as C2, etc.
/// Sampling is without replacement (weights renormalised after each pick).
class BiasedPlacement final : public PlacementPolicy {
 public:
  void choose_remotes(std::size_t origin, int nodes, const PlatformView& view,
                      std::size_t count, util::Rng& rng,
                      std::vector<std::size_t>& targets) const override;
  std::string name() const override { return "biased"; }
};

/// Informed choice: the eligible remote clusters with the fewest pending
/// requests at submission time (ties broken by cluster id). Models a
/// metascheduler with global queue knowledge; falls back to uniform when
/// the view carries no queue lengths.
class LeastLoadedPlacement final : public PlacementPolicy {
 public:
  void choose_remotes(std::size_t origin, int nodes, const PlatformView& view,
                      std::size_t count, util::Rng& rng,
                      std::vector<std::size_t>& targets) const override;
  bool reads_queue_lengths() const override { return true; }
  std::string name() const override { return "least-loaded"; }
};

/// Factory by name: "uniform", "biased" or "least-loaded". Throws on
/// unknown names.
std::unique_ptr<PlacementPolicy> make_placement(const std::string& name);

}  // namespace rrsim::grid

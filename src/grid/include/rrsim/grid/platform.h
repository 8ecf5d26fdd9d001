// The multi-site platform: N clusters, each with its own size and its own
// batch scheduler. Covers both the paper's homogeneous setups (identical
// 128-node clusters) and the Table 3 heterogeneous one (sizes in
// {16..256}). Each cluster's workload is the experiment's business
// (core/experiment_detail.h); the platform never reads it.
//
// The platform also says where each cluster runs: all on one simulation
// (the classic zero-delay kernel, one partition), or each on its own
// partition of a PdesCoordinator (the conservative parallel kernel).
// Clusters of one partition interact without delay; across partitions
// every interaction takes the coordinator's lookahead (grid/gateway.h).
#pragma once

#include <memory>
#include <vector>

#include "rrsim/des/simulation.h"
#include "rrsim/exec/pdes.h"
#include "rrsim/sched/factory.h"

namespace rrsim::grid {

/// N clusters, each with a scheduler of the same algorithm (the paper
/// never mixes algorithms across sites).
class Platform {
 public:
  /// Builds one cluster of nodes[i] nodes per entry, with their
  /// schedulers on one shared simulation. Throws std::invalid_argument if
  /// `nodes` is empty.
  Platform(des::Simulation& sim, std::vector<int> nodes,
           sched::Algorithm algorithm);

  /// Builds cluster i's scheduler on coord.partition(i). Throws
  /// std::invalid_argument unless there is one cluster per partition.
  Platform(exec::PdesCoordinator& coord, std::vector<int> nodes,
           sched::Algorithm algorithm);

  std::size_t size() const noexcept { return sizes_.size(); }
  sched::ClusterScheduler& scheduler(std::size_t i) {
    return *schedulers_.at(i);
  }
  const sched::ClusterScheduler& scheduler(std::size_t i) const {
    return *schedulers_.at(i);
  }
  sched::Algorithm algorithm() const noexcept { return algorithm_; }

  /// Cluster sizes by id, the shape placement policies consume.
  const std::vector<int>& cluster_sizes() const noexcept { return sizes_; }

  /// The coordinator the clusters run on; null on one shared simulation.
  exec::PdesCoordinator* coordinator() const noexcept { return coord_; }

  /// Partitions the clusters run in: 1 on one shared simulation, else one
  /// per cluster.
  std::size_t partitions() const noexcept {
    return coord_ != nullptr ? size() : 1;
  }

  /// The partition cluster `i` runs in.
  std::size_t partition_of(std::size_t i) const noexcept {
    return coord_ != nullptr ? i : 0;
  }

  /// Sum of operation counters over all schedulers.
  sched::OpCounters total_counters() const;

  /// Resets every scheduler in place (see ClusterScheduler::reset),
  /// keeping their arenas warm. Cluster sizes and algorithm are
  /// immutable, so a Platform may only be reused for an experiment with an
  /// identical cluster layout — callers compare cluster_sizes() and
  /// algorithm() first and reconstruct on any mismatch. The owning
  /// Simulation must be reset alongside.
  void reset() {
    for (auto& s : schedulers_) s->reset();
  }

 private:
  /// Builds the schedulers: on `shared`, or on the coordinator's
  /// partitions when it is null.
  void build(des::Simulation* shared);

  std::vector<int> sizes_;
  std::vector<std::unique_ptr<sched::ClusterScheduler>> schedulers_;
  sched::Algorithm algorithm_;
  exec::PdesCoordinator* coord_ = nullptr;
};

}  // namespace rrsim::grid

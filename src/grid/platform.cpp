#include "rrsim/grid/platform.h"

#include <stdexcept>

namespace rrsim::grid {

Platform::Platform(des::Simulation& sim, std::vector<ClusterConfig> configs,
                   sched::Algorithm algorithm)
    : configs_(std::move(configs)), algorithm_(algorithm) {
  build(&sim);
}

Platform::Platform(exec::PdesCoordinator& coord,
                   std::vector<ClusterConfig> configs,
                   sched::Algorithm algorithm)
    : configs_(std::move(configs)), algorithm_(algorithm), coord_(&coord) {
  if (configs_.size() != coord.partitions()) {
    throw std::invalid_argument("platform needs one cluster per partition");
  }
  build(nullptr);
}

void Platform::build(des::Simulation* shared) {
  if (configs_.empty()) {
    throw std::invalid_argument("platform needs >= 1 cluster");
  }
  schedulers_.reserve(configs_.size());
  sizes_.reserve(configs_.size());
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    des::Simulation& sim =
        shared != nullptr ? *shared : coord_->partition(i);
    schedulers_.push_back(
        sched::make_scheduler(algorithm_, sim, configs_[i].nodes));
    sizes_.push_back(configs_[i].nodes);
  }
}

sched::OpCounters Platform::total_counters() const {
  sched::OpCounters total;
  for (const auto& s : schedulers_) total += s->counters();
  return total;
}

std::vector<ClusterConfig> homogeneous_configs(
    std::size_t n, int nodes, const workload::LublinParams& params) {
  if (n == 0) throw std::invalid_argument("need >= 1 cluster");
  std::vector<ClusterConfig> out(n);
  for (ClusterConfig& c : out) {
    c.nodes = nodes;
    c.workload = params;
  }
  return out;
}

}  // namespace rrsim::grid

#include "rrsim/grid/platform.h"

#include <stdexcept>

namespace rrsim::grid {

Platform::Platform(des::Simulation& sim, std::vector<int> nodes,
                   sched::Algorithm algorithm)
    : sizes_(std::move(nodes)), algorithm_(algorithm) {
  build(&sim);
}

Platform::Platform(exec::PdesCoordinator& coord, std::vector<int> nodes,
                   sched::Algorithm algorithm)
    : sizes_(std::move(nodes)), algorithm_(algorithm), coord_(&coord) {
  if (sizes_.size() != coord.partitions()) {
    throw std::invalid_argument("platform needs one cluster per partition");
  }
  build(nullptr);
}

void Platform::build(des::Simulation* shared) {
  if (sizes_.empty()) {
    throw std::invalid_argument("platform needs >= 1 cluster");
  }
  schedulers_.reserve(sizes_.size());
  for (std::size_t i = 0; i < sizes_.size(); ++i) {
    des::Simulation& sim =
        shared != nullptr ? *shared : coord_->partition(i);
    schedulers_.push_back(sched::make_scheduler(algorithm_, sim, sizes_[i]));
  }
}

sched::OpCounters Platform::total_counters() const {
  sched::OpCounters total;
  for (const auto& s : schedulers_) total += s->counters();
  return total;
}

}  // namespace rrsim::grid

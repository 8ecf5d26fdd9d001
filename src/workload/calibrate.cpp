#include "rrsim/workload/calibrate.h"

#include <cmath>
#include <stdexcept>

namespace rrsim::workload {

double interarrival_for_utilization(const LublinModel& model,
                                    double target_util, util::Rng& rng,
                                    int samples) {
  if (!(target_util > 0.0) || !std::isfinite(target_util)) {
    throw std::invalid_argument("target utilisation must be finite and > 0");
  }
  const double mean_work = model.estimate_mean_work(rng, samples);
  return mean_work / (target_util * static_cast<double>(model.max_nodes()));
}

LublinParams calibrate_params(const LublinParams& params, int max_nodes,
                              double target_util, util::Rng& rng,
                              int samples) {
  const LublinModel probe(params, max_nodes);
  const double iat =
      interarrival_for_utilization(probe, target_util, rng, samples);
  return params.with_mean_interarrival(iat);
}

double offered_load(const JobStream& stream, int nodes, double horizon) {
  if (nodes <= 0) throw std::invalid_argument("nodes must be > 0");
  if (stream.empty() || horizon <= 0.0) return 0.0;
  double work = 0.0;
  for (const JobSpec& j : stream) {
    work += static_cast<double>(j.nodes) * j.runtime;
  }
  return work / (static_cast<double>(nodes) * horizon);
}

}  // namespace rrsim::workload

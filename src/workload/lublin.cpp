#include "rrsim/workload/lublin.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rrsim::workload {

LublinParams LublinParams::with_mean_interarrival(double mean_iat) const {
  if (!(mean_iat > 0.0) || !std::isfinite(mean_iat)) {
    throw std::invalid_argument("mean inter-arrival must be finite and > 0");
  }
  LublinParams out = *this;
  out.arrival_beta = mean_iat / out.arrival_alpha;
  return out;
}

LublinModel::LublinModel(LublinParams params, int max_nodes)
    : params_(params), max_nodes_(max_nodes) {
  if (max_nodes_ < 1) throw std::invalid_argument("max_nodes must be >= 1");
  const double alpha = params_.arrival_alpha;
  const double beta = params_.arrival_beta;
  if (!(alpha > 0.0) || !std::isfinite(alpha) || !(beta > 0.0) ||
      !std::isfinite(beta)) {
    throw std::invalid_argument(
        "arrival gamma parameters must be finite and > 0");
  }
  if (params_.serial_prob < 0.0 || params_.serial_prob > 1.0 ||
      params_.pow2_prob < 0.0 || params_.pow2_prob > 1.0 ||
      params_.uprob < 0.0 || params_.uprob > 1.0) {
    throw std::invalid_argument("probabilities must be in [0, 1]");
  }
  if (params_.min_runtime <= 0.0 ||
      params_.max_runtime < params_.min_runtime) {
    throw std::invalid_argument("invalid runtime clamp range");
  }
  if (params_.rt_log_base <= 1.0) {
    throw std::invalid_argument("rt_log_base must be > 1");
  }
  const double uhi = std::log2(static_cast<double>(max_nodes_));
  double umed = uhi - params_.umed_offset;
  double ulow = std::min(params_.ulow, uhi);
  // Small clusters: keep the two stages ordered.
  if (umed < ulow) umed = ulow + (uhi - ulow) / 2.0;
  log2_nodes_ = util::TwoStageUniformParams{ulow, umed, uhi, params_.uprob};
}

double LublinModel::sample_interarrival(util::Rng& rng) const {
  return std::max(1e-6, util::sample_gamma(rng, params_.arrival_alpha,
                                           params_.arrival_beta));
}

int LublinModel::sample_nodes(util::Rng& rng) const {
  if (max_nodes_ == 1 || rng.chance(params_.serial_prob)) return 1;
  const double u = util::sample_two_stage_uniform(rng, log2_nodes_);
  double nodes = 0.0;
  if (rng.chance(params_.pow2_prob)) {
    nodes = std::exp2(std::round(u));  // snap to the nearest power of two
  } else {
    nodes = std::round(std::exp2(u));
  }
  const auto n = static_cast<int>(nodes);
  return std::clamp(n, 1, max_nodes_);
}

double LublinModel::sample_runtime(util::Rng& rng, int nodes) const {
  const double p = std::clamp(
      params_.rt_pa * static_cast<double>(nodes) + params_.rt_pb, 0.0, 1.0);
  const util::HyperGammaParams hg{params_.rt_a1, params_.rt_b1, params_.rt_a2,
                                  params_.rt_b2, p};
  const double log_rt = util::sample_hyper_gamma(rng, hg);
  return std::clamp(std::pow(params_.rt_log_base, log_rt),
                    params_.min_runtime, params_.max_runtime);
}

JobSpec LublinModel::sample_job(util::Rng& rng) const {
  JobSpec spec;
  spec.nodes = sample_nodes(rng);
  spec.runtime = sample_runtime(rng, spec.nodes);
  spec.requested_time = spec.runtime;
  return spec;
}

JobStream LublinModel::generate_stream(util::Rng& rng, double horizon) const {
  if (horizon < 0.0) throw std::invalid_argument("horizon must be >= 0");
  JobStream stream;
  double t = sample_interarrival(rng);
  while (t <= horizon) {
    JobSpec spec = sample_job(rng);
    spec.submit_time = t;
    stream.push_back(spec);
    t += sample_interarrival(rng);
  }
  return stream;
}

double LublinModel::estimate_mean_work(util::Rng& rng, int samples) const {
  if (samples <= 0) throw std::invalid_argument("samples must be > 0");
  double total = 0.0;
  for (int i = 0; i < samples; ++i) {
    const JobSpec s = sample_job(rng);
    total += static_cast<double>(s.nodes) * s.runtime;
  }
  return total / static_cast<double>(samples);
}

}  // namespace rrsim::workload

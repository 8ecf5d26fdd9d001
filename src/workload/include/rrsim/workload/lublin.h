// The Lublin–Feitelson batch workload model (JPDC 2003), as used by the
// paper: gamma-distributed "peak hour" inter-arrival times, a two-stage
// log-uniform node-count distribution biased towards powers of two, and
// hyper-gamma runtimes whose mixture probability p depends on the node
// count.
//
// Parameter values default to the "model" batch-job constants from the
// published model. Runtimes are generated as exp(X) with X hyper-gamma
// (the model fits the logarithm of the runtime); the resulting mixture is
// ~1-minute short jobs and ~3-hour long jobs, with larger jobs more likely
// to be long (p = pa * nodes + pb decreases with nodes).
#pragma once

#include "rrsim/util/distributions.h"
#include "rrsim/util/rng.h"
#include "rrsim/workload/jobspec.h"

namespace rrsim::workload {

/// Parameters of the Lublin–Feitelson model. Defaults are the published
/// "model" values for batch jobs; the paper varies `arrival_alpha` (Fig 3)
/// and instantiates everything else as-is.
struct LublinParams {
  // Inter-arrival times ~ Gamma(arrival_alpha, arrival_beta) seconds;
  // defaults give the paper's 5.01 s mean "peak hour" rate.
  double arrival_alpha = 10.23;
  double arrival_beta = 0.4871;

  // Node counts: P(serial) = serial_prob; otherwise log2(nodes) is drawn
  // from a two-stage uniform on [ulow, umed] w.p. uprob, [umed, uhi]
  // otherwise, where uhi = log2(max_nodes) and umed = uhi - umed_offset.
  // The result is rounded to a power of two with probability pow2_prob.
  double serial_prob = 0.244;
  double pow2_prob = 0.576;
  double ulow = 0.8;
  double uprob = 0.86;
  double umed_offset = 3.5;

  // log(runtime seconds) ~ HyperGamma(a1, b1, a2, b2, p), with
  // p = pa * nodes + pb clamped to [0, 1]. `rt_log_base` sets the
  // logarithm base the hyper-gamma variate exponentiates through:
  // 2.0 (default) yields short jobs ~15 s / long jobs ~11 min and the
  // stretch magnitudes, drain times and ~700 jobs/hour queue growth the
  // paper reports; base e yields a much heavier tail (~1 min / ~3 h).
  double rt_a1 = 4.2;
  double rt_b1 = 0.94;
  double rt_a2 = 312.0;
  double rt_b2 = 0.03;
  double rt_pa = -0.0054;
  double rt_pb = 0.78;
  double rt_log_base = 2.0;

  // Sanity clamps on generated runtimes (seconds).
  double min_runtime = 1.0;
  double max_runtime = 2.0 * 24.0 * 3600.0;

  /// Mean inter-arrival time implied by the gamma parameters.
  double mean_interarrival() const noexcept {
    return arrival_alpha * arrival_beta;
  }

  /// Returns a copy with the arrival process rescaled so the mean
  /// inter-arrival time equals `mean_iat` seconds (alpha is kept, beta is
  /// scaled — this is how Fig 3 sweeps load while preserving burstiness).
  /// Throws std::invalid_argument unless mean_iat is finite and > 0.
  LublinParams with_mean_interarrival(double mean_iat) const;

  friend bool operator==(const LublinParams&, const LublinParams&) = default;
};

/// Sampler for the Lublin model, bound to a cluster size. Each call uses
/// the caller's Rng so multiple clusters can hold independent streams.
class LublinModel {
 public:
  /// `max_nodes` is the size of the target cluster (>= 1); the node-count
  /// distribution is truncated to it. Throws std::invalid_argument on
  /// non-positive sizes, non-finite or non-positive arrival parameters, or
  /// invalid probabilities.
  LublinModel(LublinParams params, int max_nodes);

  /// Next inter-arrival gap, seconds (> 0).
  double sample_interarrival(util::Rng& rng) const;

  /// Number of nodes for one job, in [1, max_nodes].
  int sample_nodes(util::Rng& rng) const;

  /// Actual runtime in seconds for a job of `nodes` nodes, clamped to
  /// [min_runtime, max_runtime].
  double sample_runtime(util::Rng& rng, int nodes) const;

  /// Samples one complete job (nodes then runtime). `submit_time` is
  /// filled by the caller/stream generator.
  JobSpec sample_job(util::Rng& rng) const;

  /// Generates a full stream: jobs arriving in (0, horizon] seconds.
  /// requested_time is set equal to runtime (exact estimates); apply a
  /// RuntimeEstimator afterwards for over-estimation models.
  JobStream generate_stream(util::Rng& rng, double horizon) const;

  const LublinParams& params() const noexcept { return params_; }
  int max_nodes() const noexcept { return max_nodes_; }

  /// Monte-Carlo estimate of the mean work (nodes * runtime, node-seconds)
  /// of one job, used for load calibration.
  double estimate_mean_work(util::Rng& rng, int samples = 20000) const;

 private:
  LublinParams params_;
  int max_nodes_;
  util::TwoStageUniformParams log2_nodes_;
};

}  // namespace rrsim::workload

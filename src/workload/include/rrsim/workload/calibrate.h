// Load calibration.
//
// The Lublin model's literal "peak hour" arrival rate (5 s mean
// inter-arrival) overloads any finite cluster if sustained — the paper
// itself notes queues growing by ~700 jobs/hour at that rate. Relative
// comparisons between redundancy schemes remain meaningful either way, but
// for steady-state experiments it is more informative to run each cluster
// at a controlled utilisation. These helpers rescale the arrival process
// to hit a target offered load; raw-rate experiments simply skip them.
//
// These functions are pure and uncached. Core's calibrated load mode
// memoizes its per-cluster results through workload::TraceCache (see
// CalibrationKey), so repeated runs pay for each calibration once.
#pragma once

#include "rrsim/util/rng.h"
#include "rrsim/workload/lublin.h"

namespace rrsim::workload {

/// Monte-Carlo draws per calibration unless the caller asks otherwise.
inline constexpr int kCalibrationSamples = 20000;

/// Mean inter-arrival time (seconds) that gives an offered load of
/// `target_util` (node-seconds demanded / node-seconds available) on a
/// cluster of `model.max_nodes()` nodes: E[nodes * runtime] /
/// (util * max_nodes). Estimated by Monte-Carlo with `samples` draws.
/// Throws std::invalid_argument unless target_util is finite and > 0.
double interarrival_for_utilization(const LublinModel& model,
                                    double target_util, util::Rng& rng,
                                    int samples = kCalibrationSamples);

/// Returns `params` rescaled so that a LublinModel(max_nodes) built from
/// them offers `target_util` load on a cluster of `max_nodes` nodes.
LublinParams calibrate_params(const LublinParams& params, int max_nodes,
                              double target_util, util::Rng& rng,
                              int samples = kCalibrationSamples);

/// Empirical offered load of a concrete stream on `nodes` nodes over
/// `horizon` seconds: sum(nodes_i * runtime_i) / (nodes * horizon).
/// Returns 0 for an empty stream or non-positive horizon.
double offered_load(const JobStream& stream, int nodes, double horizon);

}  // namespace rrsim::workload

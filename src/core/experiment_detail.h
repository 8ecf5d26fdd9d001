// Internal to the core experiment engine: resolution of everything a run
// consumes *before* any event fires — per-cluster workload parameters,
// the memoized job sources, and the user/redundancy substream positions.
// run_experiment() (experiment.cpp), the one run path of both kernels,
// feeds the result to detail::ArrivalPump (arrival_pump.h).
//
// The fork order across resolve_clusters() + resolve_inputs() is
// load-bearing twice over: the TraceCache keys on the workload/estimator
// generator states, and paired runs (scheme vs. NONE, sequential vs. PDES
// at the same latency) rely on byte-identical streams and draws. Do not
// reorder the master forks.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rrsim/core/experiment.h"
#include "rrsim/util/rng.h"
#include "rrsim/workload/calibrate.h"
#include "rrsim/workload/estimators.h"
#include "rrsim/workload/lublin.h"
#include "rrsim/workload/stream_window.h"
#include "rrsim/workload/swf.h"
#include "rrsim/workload/trace_cache.h"
#include "rrsim/workload/window_spool.h"

namespace rrsim::core::detail {

// Distinct substream tags so each model component draws independent
// randomness from the master seed.
enum Substream : std::uint64_t {
  kStreamWorkloadBase = 1000,
  kStreamEstimatorBase = 2000,
  kStreamRedundancy = 3000,
  kStreamPlacement = 3001,
  kStreamCalibration = 3002,
  kStreamUsers = 3003,
};

/// Cluster c's users are c * kUserIdStride + [0, users_per_cluster): the
/// one user-id encoding (ArrivalPump applies it). resolve_clusters()
/// bounds both factors so every id fits sched::UserId and no two clusters
/// share a user under per-user pending limits.
inline constexpr std::uint64_t kUserIdStride = 4096;
inline constexpr std::size_t kMaxClusters = std::size_t{1} << 20;

/// Output of resolve_clusters(): validated platform shape, each cluster's
/// workload parameters, and the master generator, positioned exactly where
/// the historical inline code left it (calibration substream consumed).
struct ResolvedClusters {
  std::vector<int> nodes;                      ///< cluster sizes
  std::vector<workload::LublinParams> params;  ///< per-cluster workloads
  util::Rng master{0};
};

/// Validates the platform/workload half of `config` and resolves the
/// per-cluster workload parameters. Deterministic in config.seed.
inline ResolvedClusters resolve_clusters(const ExperimentConfig& config) {
  if (config.n_clusters == 0) {
    throw std::invalid_argument("need >= 1 cluster");
  }
  if (config.n_clusters > kMaxClusters) {
    throw std::invalid_argument(
        "n_clusters must be <= 2^20 (user ids are cluster * 4096 + user "
        "in 32 bits)");
  }
  if (config.per_user_pending_limit < 0 || config.users_per_cluster < 1) {
    throw std::invalid_argument("invalid per-user limit configuration");
  }
  if (static_cast<std::uint64_t>(config.users_per_cluster) > kUserIdStride) {
    throw std::invalid_argument(
        "users_per_cluster must be <= 4096 (each cluster owns 4096 user "
        "ids)");
  }
  if (!config.cluster_nodes.empty() &&
      config.cluster_nodes.size() != config.n_clusters) {
    throw std::invalid_argument("cluster_nodes size mismatch");
  }
  if (!config.cluster_mean_iat.empty() &&
      config.cluster_mean_iat.size() != config.n_clusters) {
    throw std::invalid_argument("cluster_mean_iat size mismatch");
  }
  for (const double iat : config.cluster_mean_iat) {
    if (!(iat > 0.0) || !std::isfinite(iat)) {
      throw std::invalid_argument(
          "cluster_mean_iat entries must be finite and > 0");
    }
  }
  if (!(config.redundant_fraction >= 0.0 &&
        config.redundant_fraction <= 1.0)) {
    throw std::invalid_argument("redundant_fraction must be in [0, 1]");
  }
  if (!(config.submit_horizon >= 0.0) ||
      !std::isfinite(config.submit_horizon)) {
    throw std::invalid_argument("submit_horizon must be finite and >= 0");
  }

  ResolvedClusters out{{}, {}, util::Rng(config.seed)};

  // Calibration and stream generation use substreams that depend only on
  // the seed and the cluster index, never on the redundancy scheme, so
  // paired runs (scheme vs. NONE) see identical job streams.
  //
  // Calibration draws are cluster-major: cluster i's Monte-Carlo samples
  // start where cluster i-1's end. Each cluster's result is memoized in
  // the TraceCache under its start fingerprint; a hit restores the
  // substream from the memoized end fingerprint, so later clusters (and
  // every later fork of `master`) see exactly what a miss would leave.
  out.nodes.resize(config.n_clusters);
  out.params.resize(config.n_clusters, config.base_workload);
  {
    util::Rng calib_rng = out.master.fork(kStreamCalibration);
    workload::TraceCache& cache = workload::TraceCache::global();
    for (std::size_t i = 0; i < config.n_clusters; ++i) {
      out.nodes[i] = config.nodes_of(i);
      workload::LublinParams& params = out.params[i];
      if (!config.cluster_mean_iat.empty()) {
        params = params.with_mean_interarrival(config.cluster_mean_iat[i]);
      } else if (config.load_mode == LoadMode::kSharedPeak) {
        params = params.with_mean_interarrival(
            params.mean_interarrival() *
            static_cast<double>(config.n_clusters));
      } else if (config.load_mode == LoadMode::kCalibrated) {
        workload::CalibrationKey key;
        key.params = params;
        key.max_nodes = out.nodes[i];
        key.target_utilization = config.target_utilization;
        key.samples = workload::kCalibrationSamples;
        key.rng_start = calib_rng.fingerprint();
        const workload::Calibration cal = cache.get_or_calibrate(key, [&]() {
          // workload::calibrate_params, keeping the substream end state.
          util::Rng rng = util::Rng::from_fingerprint(key.rng_start);
          const workload::LublinModel probe(key.params, key.max_nodes);
          workload::Calibration c;
          c.mean_interarrival = workload::interarrival_for_utilization(
              probe, key.target_utilization, rng, key.samples);
          c.rng_end = rng.fingerprint();
          return c;
        });
        calib_rng = util::Rng::from_fingerprint(cal.rng_end);
        params = params.with_mean_interarrival(cal.mean_interarrival);
      }
      // kPerClusterPeak keeps the literal model rate.
    }
  }
  return out;
}

/// Loads one SWF trace file filtered for one cluster: submit times shifted
/// to t=0 (clamped to 1e-6 so nothing arrives "before" the simulation),
/// cut at the horizon, jobs wider than the cluster dropped. This is THE
/// entry point for file-backed traces — whole-stream runs keep its result
/// in memory and windowed runs spool it (window_spool.h), so both replay
/// byte-identical job sequences, including the post-read_swf order of
/// integer-time ties within a file.
inline workload::JobStream load_swf_stream(const std::string& path,
                                           double horizon, int max_nodes) {
  // rrsim-lint-allow(stream-materialization): the one sanctioned read_swf
  // call in core — SWF parsing must see the whole file for the stable
  // submit-time sort (ties keep file order; the tie-break explorer in
  // tools/check relies on that baseline). Whole-stream runs keep the
  // result, windowed runs spool it to disk and drop it; every other
  // core/exec call site must go through this loader or a WindowSpool
  // reader.
  workload::JobStream stream = workload::read_swf_file(path);
  const double t0 = stream.empty() ? 0.0 : stream.front().submit_time;
  // Shift and filter in place: job i lands at or before slot i.
  std::size_t kept = 0;
  for (workload::JobSpec spec : stream) {
    spec.submit_time -= t0;
    if (spec.submit_time > horizon) break;
    if (spec.submit_time <= 0.0) spec.submit_time = 1e-6;
    if (spec.nodes > max_nodes) continue;
    stream[kept++] = spec;
  }
  if (kept < stream.size()) {
    // Whole-stream runs hold the result: do not keep the cut jobs' room.
    stream.resize(kept);
    stream.shrink_to_fit();
  }
  return stream;
}

/// One cluster's arrival input, resolved before any event fires: a pull
/// source over its job stream plus the exact substream positions where
/// its user/redundancy draws begin.
struct ClusterInput {
  /// Null for an empty stream. A MemorySource over the memoized (Lublin)
  /// or loaded (SWF) whole stream when stream_window == 0; otherwise a
  /// StreamWindow resumed from a checkpoint table (Lublin) or a reader of
  /// a disk spool (SWF), pulling stream_window jobs at a time.
  std::unique_ptr<workload::WindowSource> source;
  std::uint64_t jobs = 0;  ///< exact stream length
  /// Id of the cluster's first job: ids are cluster-major from 1.
  std::uint64_t first_id = 1;
  /// Resident bytes of what backs `source`: the whole stream, the
  /// checkpoint table, or the spool index.
  std::size_t resident_bytes = 0;
  std::pair<std::uint64_t, std::uint64_t> users_start{0, 0};
  std::pair<std::uint64_t, std::uint64_t> redundancy_start{0, 0};
};

/// Output of resolve_inputs().
struct ResolvedInputs {
  std::vector<ClusterInput> clusters;
  util::Rng placement_rng{0};
  std::size_t jobs_generated = 0;
};

/// Resolves every cluster's job source and positions the user/redundancy
/// substreams. `rc` must be what resolve_clusters() returned, its master
/// generator untouched in between.
///
/// Sources are memoized in the TraceCache, keyed by everything that
/// determines them: whole streams or checkpoint tables (keyed on the
/// generator states) on the Lublin path, a spool per (path, shape,
/// horizon, window) on the windowed SWF path. The workload/estimator
/// substreams fork unconditionally, so a cache hit — or an SWF source,
/// which draws nothing — leaves every later substream exactly where a
/// miss would.
///
/// The per-job user/redundancy draws are cluster-major: cluster i's draws
/// start where cluster i-1's end. This captures the fingerprints where
/// each cluster's draws begin and rolls the generators past that
/// cluster's jobs, so each cluster's pump lane restores its own
/// generators and draws lazily, in stream order. The
/// roll-forward is one draw per job, so it is memoized per cluster
/// segment: a repeated sweep point (or a fraction sweep — chance()
/// advances the generator independently of p, see DrawSegmentKey) seeks
/// straight to the end fingerprints. A miss replays the calls the lanes
/// make: below() per job, and chance() only when a scheme is active.
inline ResolvedInputs resolve_inputs(
    const ExperimentConfig& config, ResolvedClusters& rc,
    const workload::RuntimeEstimator& estimator) {
  util::Rng& master = rc.master;
  ResolvedInputs out;
  util::Rng redundancy_rng = master.fork(kStreamRedundancy);
  util::Rng users_rng = master.fork(kStreamUsers);
  out.placement_rng = master.fork(kStreamPlacement);
  workload::TraceCache& cache = workload::TraceCache::global();
  const std::size_t window = config.stream_window;
  out.clusters.resize(config.n_clusters);
  for (std::size_t i = 0; i < config.n_clusters; ++i) {
    util::Rng stream_rng = master.fork(kStreamWorkloadBase + i);
    util::Rng est_rng = master.fork(kStreamEstimatorBase + i);
    const int nodes = rc.nodes[i];
    const workload::LublinParams& params = rc.params[i];
    ClusterInput& in = out.clusters[i];
    if (!config.trace_files.empty()) {
      const std::string& path =
          config.trace_files[i % config.trace_files.size()];
      if (window > 0) {
        workload::SpoolKey skey;
        skey.path = path;
        skey.max_nodes = nodes;
        skey.horizon = config.submit_horizon;
        skey.window = window;
        workload::TraceCache::SpoolPtr spool =
            cache.get_or_build_spool(skey, [&]() {
              workload::WindowSpool built(window);
              for (const workload::JobSpec& spec :
                   load_swf_stream(path, config.submit_horizon, nodes)) {
                built.append(spec);
              }
              built.finish();
              return built;
            });
        in.jobs = spool->total_jobs();
        in.resident_bytes = spool->payload_bytes();
        in.source =
            std::make_unique<workload::WindowSpool::Reader>(std::move(spool));
      } else {
        auto stream = std::make_shared<const workload::JobStream>(
            load_swf_stream(path, config.submit_horizon, nodes));
        in.jobs = stream->size();
        in.resident_bytes = stream->size() * sizeof(workload::JobSpec);
        in.source = std::make_unique<workload::MemorySource>(std::move(stream));
      }
    } else {
      const workload::TraceKey key =
          workload::TraceKey::of(params, nodes, config.submit_horizon,
                                 stream_rng, est_rng, estimator);
      if (window > 0) {
        const workload::TraceCache::CheckpointPtr table =
            cache.get_or_build_checkpoints(key, window, [&]() {
              return workload::scan_checkpoints(
                  params, nodes, config.submit_horizon, stream_rng,
                  est_rng, estimator, window);
            });
        in.jobs = table->total_jobs;
        in.resident_bytes = table->payload_bytes();
        if (in.jobs > 0) {
          in.source = std::make_unique<workload::StreamWindow>(
              params, nodes, config.submit_horizon,
              table->checkpoints.front(), estimator);
        }
      } else {
        workload::TraceCache::StreamPtr stream =
            cache.get_or_generate(key, [&]() {
              const workload::LublinModel model(params, nodes);
              // rrsim-lint-allow(stream-materialization): the whole-stream
              // source (stream_window == 0) — the memoized snapshot every
              // figure pipeline replays; windowed runs scan checkpoints
              // instead.
              workload::JobStream s = model.generate_stream(
                  stream_rng, config.submit_horizon);
              workload::apply_estimator(s, estimator, est_rng);
              return s;
            });
        in.jobs = stream->size();
        in.resident_bytes = stream->size() * sizeof(workload::JobSpec);
        in.source = std::make_unique<workload::MemorySource>(std::move(stream));
      }
    }
    if (in.jobs == 0) in.source.reset();
    in.first_id = out.jobs_generated + 1;
    out.jobs_generated += in.jobs;
  }

  for (ClusterInput& in : out.clusters) {
    in.users_start = users_rng.fingerprint();
    in.redundancy_start = redundancy_rng.fingerprint();
    workload::DrawSegmentKey seg;
    seg.users_start = in.users_start;
    seg.redundancy_start = in.redundancy_start;
    seg.count = in.jobs;
    seg.users_per_cluster =
        static_cast<std::uint64_t>(config.users_per_cluster);
    seg.scheme_active = !config.scheme.is_none();
    const workload::DrawSegment end = cache.get_or_advance_draws(seg, [&]() {
      util::Rng users = util::Rng::from_fingerprint(seg.users_start);
      util::Rng redundancy = util::Rng::from_fingerprint(seg.redundancy_start);
      for (std::uint64_t j = 0; j < seg.count; ++j) {
        (void)users.below(seg.users_per_cluster);
        if (seg.scheme_active) {
          (void)redundancy.chance(config.redundant_fraction);
        }
      }
      workload::DrawSegment e;
      e.users_end = users.fingerprint();
      e.redundancy_end = redundancy.fingerprint();
      return e;
    });
    users_rng = util::Rng::from_fingerprint(end.users_end);
    redundancy_rng = util::Rng::from_fingerprint(end.redundancy_end);
  }
  return out;
}

}  // namespace rrsim::core::detail

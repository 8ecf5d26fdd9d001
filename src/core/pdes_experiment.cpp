// The conservative-PDES run path: one DES partition per cluster advanced
// in lookahead windows (exec::PdesCoordinator), with the platform and the
// gateway spread over the partitions, exchanging L-delayed messages
// (grid/gateway.h).
//
// Everything *before* the event loop — workload resolution, job sources,
// user/redundancy substream positions — is shared with the sequential
// kernel through experiment_detail.h, and arrivals flow through the same
// ArrivalPump, so a PDES run consumes byte-identical inputs. During the
// run, each cluster's arrival pump, scheduler, gateway agent, placement
// generator and queue tracker are touched only by that cluster's
// partition, which is what makes results independent of the worker count
// (DESIGN.md §9).
#include <algorithm>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rrsim/core/experiment.h"
#include "rrsim/exec/pdes.h"
#include "rrsim/grid/gateway.h"
#include "rrsim/grid/placement.h"
#include "rrsim/grid/platform.h"
#include "rrsim/metrics/queue_tracker.h"
#include "rrsim/util/validate.h"
#include "arrival_pump.h"
#include "experiment_detail.h"

namespace rrsim::core::detail {

SimResult run_pdes_experiment(const ExperimentConfig& config) {
  // Least-loaded placement reads every cluster's live queue length at one
  // instant. The gateway rejects the other features that need one instant
  // view (middleware, predictions, the streaming sink) itself.
  if (config.placement == "least-loaded") {
    throw std::invalid_argument(
        "least-loaded placement needs a global queue view; "
        "not supported in PDES mode");
  }
  if (!config.drain && config.truncate_factor <= 0.0) {
    throw std::invalid_argument("truncate_factor must be > 0");
  }

  ResolvedClusters rc = resolve_clusters(config);
  const std::size_t n = config.n_clusters;

  // Declared before everything that schedules callbacks into its
  // partitions: the coordinator (and its simulations, holding any
  // still-queued callbacks after a truncated run) must be destroyed last.
  exec::PdesCoordinator coord(n, config.cross_cluster_latency,
                              config.pdes_jobs);
  grid::Platform platform(coord, rc.cluster_configs, config.algorithm);
  grid::Gateway gateway(platform, config.record_predictions);
  SimResult result;
  const auto stations = wire_run(config, platform, gateway, result);

  // Tie-break schedule hook (rrsim_check): one policy shared by every
  // partition, distinguished through the partition id in each TieGroup.
  // The policy object is called from whichever thread runs a partition's
  // window, so explorer runs are restricted to one worker.
  if (config.tie_break_policy != nullptr) {
    if (coord.jobs() != 1) {
      throw std::invalid_argument(
          "tie_break_policy requires pdes_jobs == 1 (policy calls must be "
          "single-threaded)");
    }
    for (std::size_t i = 0; i < n; ++i) {
      coord.partition(i).set_tie_break_policy(
          config.tie_break_policy, static_cast<std::uint32_t>(i));
      config.tie_break_policy->attach_coupling_probe(
          static_cast<std::uint32_t>(i),
          [&coord] { return coord.in_flight_messages(); });
    }
  }

  const auto placement = grid::make_placement(config.placement);
  const auto estimator = workload::make_estimator(config.estimator);
  ResolvedInputs inputs =
      resolve_inputs(config, rc.cluster_configs, rc.master, *estimator);
  for (std::size_t i = 0; i < n; ++i) {
    gateway.reserve_records(i, inputs.clusters[i].jobs);
  }

  // Placement state is per-cluster so redundant jobs can pick their
  // remotes on their own partition without sharing a generator. (The
  // classic kernel draws all clusters from one placement stream, so PDES
  // target choices differ from it at the same seed — but are identical
  // across worker counts, which is the determinism that matters here.)
  std::vector<util::Rng> placement_rngs;
  placement_rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    placement_rngs.push_back(inputs.placement_rng.fork(i));
  }
  const std::vector<int>& sizes = platform.cluster_sizes();
  const std::vector<std::size_t> no_lengths;  // read-only, shared by all

  const std::size_t degree = config.scheme.degree(n);
  const double inflation = config.remote_inflation;
  // Runs on the origin's partition and touches only cluster-confined state
  // (placement_rngs[origin], the origin gateway agent) plus the
  // coordinator's per-source mailbox.
  const auto submit = [&gateway, &placement = *placement, &placement_rngs,
                       &sizes, &no_lengths, degree,
                       inflation](grid::GridJob& job) {
    if (job.redundant && degree > 1) {
      const grid::PlatformView view{sizes, no_lengths};
      auto remotes =
          placement.choose_remotes(job.origin, job.spec.nodes, view,
                                   degree - 1, placement_rngs[job.origin]);
      job.targets.insert(job.targets.end(), remotes.begin(), remotes.end());
      job.redundant = job.targets.size() > 1;
    } else {
      job.redundant = false;
    }
    gateway.submit(job, inflation);
  };

  // One pump per partition over its own cluster: sources, draw generators
  // and the staged cohort are partition-confined (spool readers share one
  // immutable spool via pread), so the worker-count independence argument
  // is unchanged.
  using Pump = ArrivalPump<decltype(submit)>;
  std::deque<Pump> pumps;
  for (std::size_t i = 0; i < n; ++i) {
    pumps.emplace_back(coord.partition(i), config, /*tag_arrivals=*/true,
                       submit);
    pumps.back().add(i, inputs.clusters[i]);
  }
  for (Pump& pump : pumps) pump.start();

  // One single-probe tracker per partition (the classic kernel's one
  // tracker would probe other clusters' schedulers across partitions).
  std::vector<std::unique_ptr<metrics::QueueTracker>> trackers;
  trackers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<metrics::QueueTracker::Probe> probes;
    probes.emplace_back([&sched = platform.scheduler(i)] {
      return sched.queue_length();
    });
    trackers.push_back(std::make_unique<metrics::QueueTracker>(
        coord.partition(i), std::move(probes), config.queue_sample_interval,
        config.submit_horizon));
  }

  if (config.drain) {
    coord.run();
  } else {
    coord.run(config.submit_horizon * config.truncate_factor);
  }

#if RRSIM_VALIDATE_ENABLED
  gateway.debug_validate();
#endif

  collect_counters(platform, gateway, result);
  result.pdes_windows = coord.windows();
  result.jobs_generated = inputs.jobs_generated;
  double max_sum = 0.0;
  result.queue_growth_per_hour.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    max_sum += static_cast<double>(trackers[i]->max_length(0));
    result.queue_growth_per_hour.push_back(trackers[i]->growth_per_hour(0));
  }
  result.avg_max_queue = max_sum / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.end_time = std::max(result.end_time, coord.partition(i).now());
  }
  for (const Pump& pump : pumps) {
    result.live_state_bytes += pump.live_state_bytes();
    result.resident_trace_bytes += pump.resident_trace_bytes();
  }
  result.records = gateway.take_records();
  if (config.drain && gateway.finished() != inputs.jobs_generated) {
    throw std::logic_error(
        "conservation violation: not every grid job finished exactly once");
  }
  return result;
}

}  // namespace rrsim::core::detail

#include "rrsim/core/experiment.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "arrival_pump.h"
#include "experiment_detail.h"
#include "rrsim/des/simulation.h"
#include "rrsim/exec/pdes.h"
#include "rrsim/grid/gateway.h"
#include "rrsim/grid/middleware.h"
#include "rrsim/grid/placement.h"
#include "rrsim/grid/platform.h"
#include "rrsim/metrics/queue_tracker.h"
#include "rrsim/util/validate.h"
#include "rrsim/workload/estimators.h"

namespace rrsim::core {

int ExperimentConfig::nodes_of(std::size_t i) const {
  if (!cluster_nodes.empty()) return cluster_nodes.at(i);
  return nodes_per_cluster;
}

ExperimentWorkspace::ExperimentWorkspace() = default;
ExperimentWorkspace::~ExperimentWorkspace() = default;

ExperimentWorkspace& thread_workspace() {
  thread_local ExperimentWorkspace workspace;
  return workspace;
}

SimResult run_experiment(const ExperimentConfig& config) {
  ExperimentWorkspace workspace;
  return run_experiment(config, workspace);
}

// The one run path of both kernels: the classic kernel is one partition
// holding every cluster, the PDES kernel one coordinator partition per
// cluster (exec/pdes.h, grid/gateway.h). Once the platform is built every
// step loops over its partitions; three decisions depend on the kernel
// (marked below). Each partition's pump, schedulers, gateway agent,
// placement generator and queue tracker are touched only by that
// partition, which makes PDES results independent of the worker count
// (DESIGN.md §9).
SimResult run_experiment(const ExperimentConfig& config,
                         ExperimentWorkspace& workspace) {
  // --- Input checks, before any state is built ---------------------------
  const double latency = config.cross_cluster_latency;
  if (!(latency >= 0.0) || !std::isfinite(latency)) {
    throw std::invalid_argument(
        "cross_cluster_latency must be finite and >= 0");
  }
  if (latency > 0.0 && !config.pdes) {
    throw std::invalid_argument(
        "cross_cluster_latency > 0 requires PDES mode (--pdes)");
  }
  if (!config.drain && (!(config.truncate_factor > 0.0) ||
                        !std::isfinite(config.truncate_factor))) {
    throw std::invalid_argument("truncate_factor must be finite and > 0");
  }
  if (!(config.middleware_ops_per_sec >= 0.0) ||
      !std::isfinite(config.middleware_ops_per_sec)) {
    throw std::invalid_argument(
        "middleware_ops_per_sec must be finite and >= 0 (0 disables "
        "middleware)");
  }
  if (config.record_predictions &&
      config.algorithm != sched::Algorithm::kCbf) {
    throw std::invalid_argument(
        "record_predictions needs the CBF scheduler (FCFS and EASY make "
        "no submit-time prediction)");
  }
  // The parallel kernel only exists where cross-cluster edges do: with
  // one cluster (or zero latency) the classic zero-delay kernel *is* the
  // degenerate single-partition path, bit-identically.
  const bool partitioned =
      config.pdes && latency > 0.0 && config.n_clusters > 1;
  // Least-loaded placement reads every cluster's live queue length at one
  // instant. The gateway rejects the other features that need one instant
  // view (middleware, predictions, the streaming sink) itself.
  if (partitioned && config.placement == "least-loaded") {
    throw std::invalid_argument(
        "least-loaded placement needs a global queue view; "
        "not supported in PDES mode");
  }
  detail::ResolvedClusters rc = detail::resolve_clusters(config);
  const std::size_t n = config.n_clusters;

  // --- Kernel decision 1: where the platform lives -----------------------
  // PDES: a coordinator, platform and gateway local to this run, declared
  // before everything that schedules into the partitions so the
  // coordinator (holding whatever a truncated run leaves queued) is
  // destroyed last. Never parked in the workspace: the gateway keeps every
  // tracking entry for the whole run (DESIGN.md §9).
  //
  // Classic: the workspace's simulation, platform and gateway. Schedulers
  // depend only on (algorithm, node count), so a platform with the same
  // cluster layout is reset in place; any mismatch reconstructs.
  std::optional<exec::PdesCoordinator> coord;
  std::optional<grid::Platform> run_platform;
  std::optional<grid::Gateway> run_gateway;
  workspace.sim_.reset();
  if (partitioned) {
    coord.emplace(n, latency, config.pdes_jobs);
    run_platform.emplace(*coord, rc.nodes, config.algorithm);
    run_gateway.emplace(*run_platform, config.record_predictions);
  } else if (workspace.platform_ != nullptr &&
             workspace.platform_->algorithm() == config.algorithm &&
             workspace.platform_->cluster_sizes() == rc.nodes) {
    workspace.platform_->reset();
    workspace.gateway_->reset(config.record_predictions);
    ++workspace.reuses_;
  } else {
    // The gateway references the platform; destroy it first.
    workspace.gateway_.reset();
    workspace.platform_.reset();
    workspace.platform_ = std::make_unique<grid::Platform>(
        workspace.sim_, rc.nodes, config.algorithm);
    workspace.gateway_ = std::make_unique<grid::Gateway>(
        *workspace.platform_, config.record_predictions);
  }
  grid::Platform& platform =
      run_platform ? *run_platform : *workspace.platform_;
  grid::Gateway& gateway = run_gateway ? *run_gateway : *workspace.gateway_;
  const std::size_t partitions = platform.partitions();
  const auto sim_of = [&coord,
                       &workspace](std::size_t p) -> des::Simulation& {
    return coord ? coord->partition(p) : workspace.sim_;
  };

  // Tie-break schedule hook (rrsim_check): one policy on every partition,
  // installed before any event is scheduled and told apart by the
  // partition id in each TieGroup. The coupling probe lets the explorer
  // prove same-timestamp events on disjoint clusters independent: replica
  // sets spanning clusters on one partition, undelivered messages across
  // partitions. Policy calls come from whichever thread runs a window, so
  // PDES explorer runs need one worker. The final reset (or the
  // coordinator's end) uninstalls the policy, so pooled workspaces never
  // keep a pointer to a policy its owner has since destroyed.
  if (config.tie_break_policy != nullptr) {
    if (coord && coord->jobs() != 1) {
      throw std::invalid_argument(
          "tie_break_policy requires pdes_jobs == 1 (policy calls must be "
          "single-threaded)");
    }
    for (std::size_t p = 0; p < partitions; ++p) {
      const auto id = static_cast<std::uint32_t>(p);
      sim_of(p).set_tie_break_policy(config.tie_break_policy, id);
      config.tie_break_policy->attach_coupling_probe(id, [&coord, &gateway] {
        return coord ? coord->in_flight_messages()
                     : gateway.cross_cluster_links();
      });
    }
  }

  // --- Run wiring, before any event is scheduled -------------------------
  // Declared here: the streaming sink points at result.stream and must
  // outlive the run.
  SimResult result;
  if (config.per_user_pending_limit > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      platform.scheduler(i).set_per_user_pending_limit(
          config.per_user_pending_limit);
    }
  }
  // The record mode decides only where the gateway puts each record.
  result.streamed = !config.retain_records;
  if (!config.retain_records) gateway.set_record_sink(&result.stream);
  // Middleware stations, one per cluster on that cluster's simulation. The
  // gateway rejects them, like the streaming sink, on more than one
  // partition.
  std::vector<std::unique_ptr<grid::MiddlewareStation>> stations;
  if (config.middleware_ops_per_sec > 0.0) {
    std::vector<grid::MiddlewareStation*> raw;
    for (std::size_t i = 0; i < n; ++i) {
      stations.push_back(std::make_unique<grid::MiddlewareStation>(
          platform.scheduler(i).simulation(),
          config.middleware_ops_per_sec));
      raw.push_back(stations.back().get());
    }
    gateway.set_middleware(std::move(raw));
  }
  const auto placement = grid::make_placement(config.placement);
  const auto estimator = workload::make_estimator(config.estimator);
  detail::ResolvedInputs inputs =
      detail::resolve_inputs(config, rc, *estimator);

  // Retained runs append every finished job to its origin partition's
  // record buffer, sized once to the jobs of that partition's clusters:
  // every generated job finishes exactly once under drain, so the
  // per-finish push_back never reallocates. Partition p's first cluster
  // is cluster p.
  if (config.retain_records) {
    std::vector<std::size_t> jobs_of(partitions, 0);
    for (std::size_t i = 0; i < n; ++i) {
      jobs_of[platform.partition_of(i)] += inputs.clusters[i].jobs;
    }
    for (std::size_t p = 0; p < partitions; ++p) {
      gateway.reserve_records(p, jobs_of[p]);
    }
  }

  // --- Kernel decision 2: placement substreams ---------------------------
  // One placement generator per partition, so a redundant job picks its
  // remotes on its origin's partition. One partition draws from the
  // placement substream itself; P partitions fork it per partition p
  // (which holds cluster p), so PDES targets differ from the classic
  // kernel's at the same seed but not across worker counts. Only one
  // partition sees every cluster's live queue length (least-loaded
  // placement); across partitions the view holds the sizes alone.
  std::vector<util::Rng> placement_rngs;
  if (partitions == 1) {
    placement_rngs.push_back(inputs.placement_rng);
  } else {
    for (std::size_t p = 0; p < partitions; ++p) {
      placement_rngs.push_back(inputs.placement_rng.fork(p));
    }
  }
  const bool live_view = partitions == 1;
  const std::size_t degree = config.scheme.degree(n);
  const double inflation = config.remote_inflation;
  const auto submit = [&platform, &gateway, &placement = *placement,
                       &placement_rngs, live_view, degree,
                       inflation](grid::GridJob& job) {
    if (job.redundant && degree > 1) {
      std::vector<std::size_t> lengths;
      if (live_view) {
        lengths.reserve(platform.size());
        for (std::size_t c = 0; c < platform.size(); ++c) {
          lengths.push_back(platform.scheduler(c).queue_length());
        }
      }
      const grid::PlatformView view{platform.cluster_sizes(), lengths};
      auto remotes = placement.choose_remotes(
          job.origin, job.spec.nodes, view, degree - 1,
          placement_rngs[platform.partition_of(job.origin)]);
      job.targets.insert(job.targets.end(), remotes.begin(), remotes.end());
      job.redundant = job.targets.size() > 1;
    } else {
      job.redundant = false;
    }
    gateway.submit(job, inflation);
  };

  // One pump per partition over its own clusters, added in ascending
  // order. Arrivals carry their origin-cluster tag unless placement
  // couples them: on one partition under a redundant scheme every arrival
  // draws from the one shared placement substream and snapshots every
  // cluster's queue length, so permuting same-timestamp arrivals — even on
  // different clusters — changes replica targets. Untagged arrivals are
  // dependent on everything for schedule explorers (tools/check).
  const bool tag_arrivals = degree <= 1 || partitions > 1;
  using Pump = detail::ArrivalPump<decltype(submit)>;
  std::deque<Pump> pumps;
  for (std::size_t p = 0; p < partitions; ++p) {
    pumps.emplace_back(sim_of(p), config, tag_arrivals, submit);
  }
  for (std::size_t i = 0; i < n; ++i) {
    pumps[platform.partition_of(i)].add(i, inputs.clusters[i]);
  }
  for (Pump& pump : pumps) pump.start();

  // --- Queue observation ---------------------------------------------------
  // One tracker per partition over that partition's clusters (a tracker
  // may only probe schedulers of its own partition). probe_of[i] is
  // cluster i's (tracker, probe) slot.
  std::deque<metrics::QueueTracker> trackers;
  std::vector<std::pair<std::size_t, std::size_t>> probe_of(n);
  {
    std::vector<std::vector<metrics::QueueTracker::Probe>> probes(partitions);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t p = platform.partition_of(i);
      probe_of[i] = {p, probes[p].size()};
      probes[p].emplace_back([&sched = platform.scheduler(i)] {
        return sched.queue_length();
      });
    }
    for (std::size_t p = 0; p < partitions; ++p) {
      trackers.emplace_back(sim_of(p), std::move(probes[p]),
                            config.queue_sample_interval,
                            config.submit_horizon);
    }
  }

  // --- Kernel decision 3: advancing to the limit -------------------------
  // Drained runs go until every job has started and finished.
  const des::Time limit = config.drain
                              ? des::kTimeInfinity
                              : config.submit_horizon * config.truncate_factor;
  if (coord) {
    coord->run(limit);
  } else if (config.drain) {
    workspace.sim_.run();
  } else {
    workspace.sim_.run_until(limit);
  }

#if RRSIM_VALIDATE_ENABLED
  gateway.debug_validate();
#endif

  // --- Results --------------------------------------------------------------
  result.ops = platform.total_counters();
  result.gateway_cancels = gateway.cancellations_issued();
  result.replicas_rejected = gateway.replicas_rejected();
  result.replicas_dropped = gateway.replicas_dropped();
  result.duplicate_starts = gateway.duplicate_starts();
  result.duplicate_finishes = gateway.duplicate_finishes();
  result.live_state_bytes = gateway.live_state_bytes();
  for (std::size_t i = 0; i < n; ++i) {
    result.live_state_bytes += platform.scheduler(i).live_state_bytes();
  }
  for (const auto& station : stations) {
    result.middleware_max_backlog =
        std::max(result.middleware_max_backlog,
                 static_cast<double>(station->max_backlog()));
    result.middleware_mean_sojourn +=
        station->mean_sojourn() / static_cast<double>(stations.size());
  }
  result.pdes_windows = coord ? coord->windows() : 0;
  result.jobs_generated = inputs.jobs_generated;
  double max_sum = 0.0;
  result.queue_growth_per_hour.reserve(n);
  for (const auto& [p, k] : probe_of) {
    max_sum += static_cast<double>(trackers[p].max_length(k));
    result.queue_growth_per_hour.push_back(trackers[p].growth_per_hour(k));
  }
  result.avg_max_queue = max_sum / static_cast<double>(n);
  for (std::size_t p = 0; p < partitions; ++p) {
    result.end_time = std::max(result.end_time, sim_of(p).now());
    result.events_dispatched += sim_of(p).dispatched();
  }
  for (const Pump& pump : pumps) {
    result.live_state_bytes += pump.live_state_bytes();
    result.resident_trace_bytes += pump.resident_trace_bytes();
  }
  if (config.drain && gateway.finished() != inputs.jobs_generated) {
    throw std::logic_error(
        "conservation violation: not every grid job finished exactly once");
  }
  result.records = gateway.take_records();
  gateway.set_record_sink(nullptr);
  // Leave the workspace inert: arrival events captured the pumps, locals
  // of this call; reset() both frees the slab's callbacks and guarantees
  // none can ever fire.
  workspace.sim_.reset();
  return result;
}

}  // namespace rrsim::core

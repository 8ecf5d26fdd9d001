#include "rrsim/core/experiment.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "arrival_pump.h"
#include "experiment_detail.h"
#include "rrsim/des/simulation.h"
#include "rrsim/grid/gateway.h"
#include "rrsim/grid/placement.h"
#include "rrsim/grid/platform.h"
#include "rrsim/metrics/queue_tracker.h"
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

SimResult run_experiment(const ExperimentConfig& config,
                         ExperimentWorkspace& workspace) {
  if (config.cross_cluster_latency < 0.0) {
    throw std::invalid_argument("cross_cluster_latency must be >= 0");
  }
  if (config.cross_cluster_latency > 0.0 && !config.pdes) {
    throw std::invalid_argument(
        "cross_cluster_latency > 0 requires PDES mode (--pdes)");
  }
  // The parallel kernel only exists where cross-cluster edges do: with
  // one cluster (or zero latency) the classic zero-delay kernel *is* the
  // degenerate single-partition path, bit-identically.
  if (config.pdes && config.cross_cluster_latency > 0.0 &&
      config.n_clusters > 1) {
    return detail::run_pdes_experiment(config);
  }
  detail::ResolvedClusters rc = detail::resolve_clusters(config);
  std::vector<grid::ClusterConfig>& cluster_configs = rc.cluster_configs;
  des::Simulation& sim = workspace.sim_;
  sim.reset();

  // --- Acquire platform + gateway (reuse when the shape matches) --------
  // Schedulers depend only on (algorithm, node count), so a workspace
  // whose platform has the same cluster layout is reset in place; any
  // mismatch reconstructs. The workload parameters stored inside the
  // platform's configs are never read here — stream generation uses the
  // freshly resolved cluster_configs above.
  {
    bool reuse = workspace.platform_ != nullptr &&
                 workspace.platform_->algorithm() == config.algorithm &&
                 workspace.platform_->size() == config.n_clusters;
    if (reuse) {
      for (std::size_t i = 0; i < config.n_clusters; ++i) {
        if (workspace.platform_->cluster_sizes()[i] !=
            cluster_configs[i].nodes) {
          reuse = false;
          break;
        }
      }
    }
    if (reuse) {
      workspace.platform_->reset();
      workspace.gateway_->reset(config.record_predictions);
      ++workspace.reuses_;
    } else {
      // The gateway references the platform; destroy it first.
      workspace.gateway_.reset();
      workspace.platform_.reset();
      workspace.platform_ = std::make_unique<grid::Platform>(
          sim, cluster_configs, config.algorithm);
      workspace.gateway_ = std::make_unique<grid::Gateway>(
          *workspace.platform_, config.record_predictions);
    }
  }
  grid::Platform& platform = *workspace.platform_;
  grid::Gateway& gateway = *workspace.gateway_;

  // Tie-break schedule hook (rrsim_check): installed before any event is
  // scheduled; the gateway probe lets the explorer prove same-timestamp
  // events on disjoint clusters independent. sim.reset() at the end of
  // the run uninstalls the policy, so pooled workspaces never retain a
  // pointer into a departed driver.
  if (config.tie_break_policy != nullptr) {
    sim.set_tie_break_policy(config.tie_break_policy, 0);
    config.tie_break_policy->attach_coupling_probe(
        0, [&gateway] { return gateway.cross_cluster_links(); });
  }

  // Declared before scheduling: the streaming sink points at result.stream
  // and must outlive the run.
  SimResult result;
  const auto stations = detail::wire_run(config, platform, gateway, result);
  const auto placement = grid::make_placement(config.placement);
  const auto estimator = workload::make_estimator(config.estimator);

  // --- Resolve inputs (shared with the PDES kernel) ----------------------
  detail::ResolvedInputs inputs = detail::resolve_inputs(
      config, cluster_configs, rc.master, *estimator);
  // Retained runs append every finished job as a record, sized once: every
  // generated job finishes exactly once under drain, so the per-finish
  // push_back never reallocates.
  if (config.retain_records) {
    gateway.reserve_records(0, inputs.jobs_generated);
  }

  const std::size_t degree = config.scheme.degree(config.n_clusters);
  const double inflation = config.remote_inflation;
  // Chooses the remote targets of one redundant job at its submission
  // instant, so informed placement policies (least-loaded) observe the
  // live queue lengths.
  const auto submit = [&platform, &gateway, &placement = *placement,
                       &placement_rng = inputs.placement_rng, degree,
                       inflation](grid::GridJob& job) {
    if (job.redundant && degree > 1) {
      std::vector<std::size_t> lengths;
      lengths.reserve(platform.size());
      for (std::size_t c = 0; c < platform.size(); ++c) {
        lengths.push_back(platform.scheduler(c).queue_length());
      }
      const grid::PlatformView view{platform.cluster_sizes(), lengths};
      auto remotes = placement.choose_remotes(job.origin, job.spec.nodes,
                                              view, degree - 1,
                                              placement_rng);
      job.targets.insert(job.targets.end(), remotes.begin(), remotes.end());
      job.redundant = job.targets.size() > 1;
    } else {
      job.redundant = false;
    }
    gateway.submit(job, inflation);
  };
  // Under a redundant scheme every arrival couples globally: placement
  // draws from the single shared placement substream and snapshots every
  // cluster's queue length, so permuting same-timestamp arrivals — even
  // ones submitting to different clusters — reorders the RNG draws and
  // changes replica targets. Arrival events therefore carry their
  // origin-cluster tag only when no placement draw can happen
  // (degree <= 1); otherwise they are untagged so schedule explorers
  // (tools/check) treat them as dependent on everything.
  detail::ArrivalPump pump(sim, config, /*tag_arrivals=*/degree <= 1, submit);
  for (std::size_t i = 0; i < config.n_clusters; ++i) {
    pump.add(i, inputs.clusters[i]);
  }
  pump.start();

  // --- Queue observation ---------------------------------------------------
  std::vector<metrics::QueueTracker::Probe> probes;
  probes.reserve(config.n_clusters);
  for (std::size_t i = 0; i < config.n_clusters; ++i) {
    probes.emplace_back([&platform, i] {
      return platform.scheduler(i).queue_length();
    });
  }
  metrics::QueueTracker tracker(sim, std::move(probes),
                                config.queue_sample_interval,
                                config.submit_horizon);

  if (config.drain) {
    sim.run();  // every job eventually starts and finishes
  } else {
    if (config.truncate_factor <= 0.0) {
      throw std::invalid_argument("truncate_factor must be > 0");
    }
    sim.run_until(config.submit_horizon * config.truncate_factor);
  }

  detail::collect_counters(platform, gateway, result);
  for (const auto& station : stations) {
    result.middleware_max_backlog =
        std::max(result.middleware_max_backlog,
                 static_cast<double>(station->max_backlog()));
    result.middleware_mean_sojourn +=
        station->mean_sojourn() / static_cast<double>(stations.size());
  }
  result.jobs_generated = inputs.jobs_generated;
  result.avg_max_queue = tracker.avg_max_length();
  result.queue_growth_per_hour.reserve(config.n_clusters);
  for (std::size_t i = 0; i < config.n_clusters; ++i) {
    result.queue_growth_per_hour.push_back(tracker.growth_per_hour(i));
  }
  result.end_time = sim.now();
  result.live_state_bytes += pump.live_state_bytes();
  result.resident_trace_bytes = pump.resident_trace_bytes();
  result.records = gateway.take_records();
  gateway.set_record_sink(nullptr);
  if (config.drain) {
    const std::uint64_t finished = config.retain_records
                                       ? result.records.size()
                                       : gateway.finished();
    if (finished != inputs.jobs_generated) {
      throw std::logic_error(
          "conservation violation: not every grid job finished exactly once");
    }
  }
  // Leave the workspace inert: arrival events captured the pump, a local
  // of this call; reset() both frees the slab's callbacks and guarantees
  // none can ever fire.
  sim.reset();
  return result;
}

}  // namespace rrsim::core

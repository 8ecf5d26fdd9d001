#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rrsim/core/campaign.h"
#include "rrsim/core/experiment.h"
#include "rrsim/core/paper.h"
#include "rrsim/core/sweep.h"
#include "rrsim/metrics/online.h"
#include "rrsim/metrics/summary.h"
#include "rrsim/util/rng.h"
#include "rrsim/workload/calibrate.h"
#include "rrsim/workload/estimators.h"
#include "rrsim/workload/lublin.h"
#include "rrsim/workload/stream_window.h"
#include "rrsim/workload/swf.h"
#include "rrsim/workload/trace_cache.h"
#include "rrsim/workload/window_spool.h"

namespace perfbench {
namespace {

using namespace rrsim;

constexpr double kHour = 3600.0;
constexpr double kMiB = 1024.0 * 1024.0;

// Truncation limit, as a share of the horizon, that lies before every
// first arrival (SWF replays clamp theirs to 1e-6 s): a run_experiment
// call with it resolves and caches every input and dispatches nothing.
constexpr double kResolveOnly = 1e-12;

core::SimResult resolve_only(core::ExperimentConfig config) {
  config.drain = false;
  config.truncate_factor = kResolveOnly;
  return core::run_experiment(config);
}

struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void u64(std::uint64_t v) { h = (h * 6364136223846793005ULL) ^ v; }
  void f64(double d) { u64(std::bit_cast<std::uint64_t>(d)); }
};

std::string hexf(double d) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", d);
  return buf;
}

// Streaming runs: the accumulator's headline values, bit for bit.
RunOutcome outcome_of_stream(const core::SimResult& r) {
  const metrics::ScheduleMetrics m = r.stream.metrics();
  const metrics::ClassifiedMetrics c = r.stream.classified();
  const double values[] = {m.avg_stretch,
                           m.cv_stretch_percent,
                           m.max_stretch,
                           m.avg_turnaround,
                           m.avg_wait,
                           c.redundant.avg_stretch,
                           c.non_redundant.avg_stretch,
                           r.stream.stretch_p50(),
                           r.stream.stretch_p90(),
                           r.stream.stretch_p99()};
  RunOutcome out;
  Digest d;
  d.u64(m.jobs);
  out.summary = "jobs=" + std::to_string(m.jobs);
  for (const double v : values) {
    d.f64(v);
    out.summary += " " + hexf(v);
  }
  out.checksum = d.h;
  out.jobs = m.jobs;
  return out;
}

// Retained runs: every record's identity, placement and times, plus the
// duplicate starts the latency model produces.
RunOutcome outcome_of_records(const core::SimResult& r) {
  Digest d;
  for (const metrics::JobRecord& rec : r.records) {
    d.u64(rec.grid_id);
    d.u64(rec.winner_cluster);
    d.u64(static_cast<std::uint64_t>(rec.replicas_delivered));
    d.f64(rec.submit_time);
    d.f64(rec.start_time);
    d.f64(rec.finish_time);
  }
  d.u64(r.duplicate_starts);
  const metrics::ScheduleMetrics m = metrics::compute_metrics(r.records);
  RunOutcome out;
  out.checksum = d.h;
  out.jobs = r.records.size();
  out.summary = "jobs=" + std::to_string(m.jobs) + " avg_stretch=" +
                hexf(m.avg_stretch) + " max_stretch=" + hexf(m.max_stretch) +
                " duplicate_starts=" + std::to_string(r.duplicate_starts);
  return out;
}

// TraceCache lookups of every entry kind, as a snapshot to take deltas of.
struct CacheCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  static CacheCounts now() {
    const workload::TraceCache& c = workload::TraceCache::global();
    return {c.hits() + c.checkpoint_hits() + c.draw_hits() + c.spool_hits(),
            c.misses() + c.checkpoint_misses() + c.draw_misses() +
                c.spool_misses()};
  }
  void to_layers_since(const CacheCounts& before, Layers& layers) const {
    layers["workload.cache_hits"] = static_cast<double>(hits - before.hits);
    layers["workload.cache_misses"] =
        static_cast<double>(misses - before.misses);
  }
};

// Work counts of the grid, sched and exec layers, summed over runs.
struct WorkCounts {
  std::uint64_t jobs = 0;
  std::uint64_t submits = 0;
  std::uint64_t starts = 0;
  std::uint64_t declines = 0;
  std::uint64_t passes = 0;
  std::uint64_t cancels = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicate_starts = 0;
  std::uint64_t windows = 0;
  std::size_t live_state_max = 0;
  std::size_t resident_trace_max = 0;

  void add(const core::SimResult& r) {
    jobs += r.jobs_generated;
    submits += r.ops.submits;
    starts += r.ops.starts;
    declines += r.ops.declines;
    passes += r.ops.sched_passes;
    cancels += r.gateway_cancels;
    dropped += r.replicas_dropped;
    duplicate_starts += r.duplicate_starts;
    windows += r.pdes_windows;
    live_state_max = std::max(live_state_max, r.live_state_bytes);
    resident_trace_max = std::max(resident_trace_max, r.resident_trace_bytes);
  }

  void to_layers(Layers& layers) const {
    const auto per = [](std::uint64_t num, std::uint64_t den) {
      return den == 0 ? 0.0
                      : static_cast<double>(num) / static_cast<double>(den);
    };
    layers["core.jobs"] = static_cast<double>(jobs);
    layers["core.live_state_mb"] = static_cast<double>(live_state_max) / kMiB;
    layers["workload.resident_trace_mb"] =
        static_cast<double>(resident_trace_max) / kMiB;
    layers["exec.pdes_windows"] = static_cast<double>(windows);
    layers["exec.jobs_per_window"] = per(jobs, windows);
    layers["grid.replicas_per_job"] = per(submits, jobs);
    layers["grid.useful_replica_ratio"] = per(jobs, submits);
    layers["grid.cancels_per_job"] = per(cancels, jobs);
    layers["grid.replicas_dropped"] = static_cast<double>(dropped);
    layers["grid.duplicate_starts"] = static_cast<double>(duplicate_starts);
    layers["sched.passes_per_job"] = per(passes, jobs);
    layers["sched.declines_per_job"] = per(declines, jobs);
    layers["sched.starts_per_job"] = per(starts, jobs);
  }
};

void set_run_quantiles(const Tracer& tracer, const std::string& span,
                       Layers& layers) {
  const std::vector<double> runs = tracer.durations(span);
  if (runs.empty()) return;
  layers["core.run_s.p50"] = util::quantile(runs, 0.50);
  layers["core.run_s.p90"] = util::quantile(runs, 0.90);
}

// Replays a retained run's records through the streaming accumulator:
// times the per-job metrics fold, and checks that the fold reproduces the
// streaming run's headline values (the two record modes are specified to
// agree bit for bit on these inputs).
void fold_retained_twin(const core::ExperimentConfig& streaming_config,
                        const RunOutcome& streaming, Tracer& tracer,
                        Layers& layers) {
  core::ExperimentConfig twin = streaming_config;
  twin.retain_records = true;
  twin.stream_window = 0;
  core::SimResult retained;
  {
    Tracer::Scope s(tracer, "core.run_experiment_retained");
    retained = core::run_experiment(twin);
  }
  core::SimResult replay;
  replay.streamed = true;
  {
    Tracer::Scope s(tracer, "metrics.online_add");
    for (const metrics::JobRecord& rec : retained.records) {
      replay.stream.add(rec);
    }
  }
  layers["metrics.fold_ns_per_job"] =
      tracer.total("metrics.online_add") * 1e9 /
      static_cast<double>(std::max<std::size_t>(1, retained.records.size()));
  if (outcome_of_stream(replay).checksum != streaming.checksum) {
    throw std::runtime_error(
        "retained records folded through OnlineAccumulator disagree with "
        "the streaming run");
  }
}

// ---------------------------------------------------------------------------
// paper_fig1: Figure 1's quick grid through core::CampaignSweep.

class PaperFig1 final : public Workload {
 public:
  PaperFig1(std::uint64_t seed, Scale scale) : base_(core::figure_config_quick()) {
    base_.seed = seed;
    if (scale == Scale::kToy) base_.submit_horizon = 0.1 * kHour;
  }

  int workers() const override { return kWorkers; }

  void setup() override {
    std::uint64_t distinct = 0;
    for (const std::size_t n : kClusters) {
      for (int r = 0; r < kReps; ++r) {
        distinct += resolve_only(point(n, "NONE", r)).jobs_generated;
      }
    }
    // Every scheme's point runs each (N, seed) twice: with the scheme and
    // as its NONE baseline.
    sweep_jobs_ = distinct * 2 * std::size(kSchemes);
  }

  RunOutcome run() override {
    core::CampaignSweep sweep(kReps, kWorkers);
    std::vector<core::RelativeMetrics> grid = queue(sweep);
    const Clock::time_point start = Clock::now();
    sweep.run();
    const double seconds = seconds_since(start);
    RunOutcome out = outcome(grid);
    out.seconds = seconds;
    return out;
  }

  std::uint64_t generate(Tracer& tracer, Layers&) override {
    const auto estimator = workload::make_estimator(base_.estimator);
    std::uint64_t jobs = 0;
    for (const std::size_t n : kClusters) {
      // Shared-peak load: each of the n clusters sees 1/n of the rate.
      const workload::LublinParams params =
          base_.base_workload.with_mean_interarrival(
              base_.base_workload.mean_interarrival() *
              static_cast<double>(n));
      const workload::LublinModel model(params, base_.nodes_per_cluster);
      for (int r = 0; r < kReps; ++r) {
        util::Rng master(base_.seed + static_cast<std::uint64_t>(r));
        for (std::size_t i = 0; i < n; ++i) {
          util::Rng stream_rng = master.fork(2 * i);
          util::Rng est_rng = master.fork(2 * i + 1);
          Tracer::Scope s(tracer, "workload.generate_stream");
          workload::JobStream stream =
              model.generate_stream(stream_rng, base_.submit_horizon);
          workload::apply_estimator(stream, *estimator, est_rng);
          jobs += stream.size();
        }
      }
    }
    return jobs;
  }

  RunOutcome run_traced(Tracer& tracer, Layers& layers) override {
    core::CampaignSweep sweep(kReps, kWorkers);
    std::vector<core::RelativeMetrics> grid = queue(sweep);
    {
      Tracer::Scope s(tracer, "exec.sweep");
      sweep.run();
    }
    const RunOutcome out = outcome(grid);
    const double sweep_s = tracer.total("exec.sweep");
    const core::SweepCacheStats& cs = sweep.last_cache_stats();
    layers["workload.cache_hits"] = static_cast<double>(
        cs.stream_hits + cs.checkpoint_hits + cs.draw_hits + cs.spool_hits);
    layers["workload.cache_misses"] =
        static_cast<double>(cs.stream_misses + cs.checkpoint_misses +
                            cs.draw_misses + cs.spool_misses);
    layers["trace.wall_traced_s"] = sweep_s;

    // Serial replay of the sweep's calls: per-call spans the pool hides,
    // the work counts, and the batch metrics fold. Each repetition's
    // stretch ratio must equal the one the pool produced.
    WorkCounts counts;
    std::uint64_t folded = 0;
    std::size_t p = 0;
    for (const std::size_t n : kClusters) {
      for (const char* scheme : kSchemes) {
        for (int r = 0; r < kReps; ++r) {
          const core::SimResult with = replay_call(tracer, point(n, scheme, r));
          const core::SimResult without =
              replay_call(tracer, point(n, "NONE", r));
          counts.add(with);
          counts.add(without);
          metrics::ClassifiedMetrics mw;
          metrics::ClassifiedMetrics mn;
          {
            Tracer::Scope s(tracer, "metrics.compute_classified_metrics");
            mw = metrics::compute_classified_metrics(with.records);
            mn = metrics::compute_classified_metrics(without.records);
          }
          folded += with.records.size() + without.records.size();
          const std::vector<double>& ratios = grid[p].per_rep_rel_stretch;
          if (static_cast<std::size_t>(r) >= ratios.size() ||
              mw.all.avg_stretch / mn.all.avg_stretch !=
                  ratios[static_cast<std::size_t>(r)]) {
            throw std::runtime_error(
                "serial replay disagrees with the sweep at N=" +
                std::to_string(n) + " " + scheme);
          }
        }
        ++p;
      }
    }
    counts.to_layers(layers);
    set_run_quantiles(tracer, "core.run_experiment", layers);
    const double busy = tracer.total("core.run_experiment");
    layers["exec.sweep_s"] = sweep_s;
    layers["exec.busy_s"] = busy;
    layers["exec.idle_frac"] = 1.0 - busy / (kWorkers * sweep_s);
    layers["metrics.fold_ns_per_job"] =
        tracer.total("metrics.compute_classified_metrics") * 1e9 /
        static_cast<double>(std::max<std::uint64_t>(1, folded));
    return out;
  }

 private:
  static constexpr int kWorkers = 2;
  static constexpr int kReps = 3;
  static constexpr std::size_t kClusters[] = {2, 3, 4, 5, 10, 20};
  static constexpr const char* kSchemes[] = {"R2", "R3", "R4", "HALF", "ALL"};

  core::ExperimentConfig point(std::size_t n, const char* scheme, int rep) const {
    core::ExperimentConfig c = base_;
    c.n_clusters = n;
    c.scheme = core::RedundancyScheme::parse(scheme);
    c.seed = base_.seed + static_cast<std::uint64_t>(rep);
    return c;
  }

  std::vector<core::RelativeMetrics> queue(core::CampaignSweep& sweep) const {
    std::vector<core::RelativeMetrics> grid(std::size(kClusters) *
                                            std::size(kSchemes));
    std::size_t p = 0;
    for (const std::size_t n : kClusters) {
      for (const char* scheme : kSchemes) {
        sweep.add_relative(point(n, scheme, 0),
                           [&grid, p](const core::RelativeMetrics& m) {
                             grid[p] = m;
                           });
        ++p;
      }
    }
    return grid;
  }

  core::SimResult replay_call(Tracer& tracer,
                              const core::ExperimentConfig& config) const {
    Tracer::Scope s(tracer, "core.run_experiment");
    return core::run_experiment(config, core::thread_workspace());
  }

  RunOutcome outcome(const std::vector<core::RelativeMetrics>& grid) const {
    RunOutcome out;
    Digest d;
    for (const core::RelativeMetrics& m : grid) {
      d.u64(m.reps);
      d.f64(m.rel_avg_stretch);
      d.f64(m.rel_cv_stretch);
      d.f64(m.rel_max_stretch);
      d.f64(m.rel_avg_turnaround);
      d.f64(m.win_rate);
      d.f64(m.worst_rel_stretch);
      for (const double x : m.per_rep_rel_stretch) d.f64(x);
    }
    out.checksum = d.h;
    out.jobs = sweep_jobs_;
    // The N = 20 row, the one whose sign the paper's claim rests on.
    out.summary = "N=20 rel_avg_stretch:";
    for (std::size_t j = 0; j < std::size(kSchemes); ++j) {
      out.summary += std::string(" ") + kSchemes[j] + "=" +
                     hexf(grid[grid.size() - std::size(kSchemes) + j]
                              .rel_avg_stretch);
    }
    return out;
  }

  core::ExperimentConfig base_;
  std::uint64_t sweep_jobs_ = 0;
};

// ---------------------------------------------------------------------------
// Shared shape of the three single-run workloads: one run_experiment call
// on the main thread, inputs resolved by an identical call that stops
// before the first event.

class SingleRun : public Workload {
 public:
  int workers() const override { return 1; }
  void setup() override { (void)resolve_only(config_); }

  RunOutcome run() override {
    const Clock::time_point start = Clock::now();
    const core::SimResult r = simulate(config_);
    const double seconds = seconds_since(start);
    RunOutcome out = outcome(r);
    out.seconds = seconds;
    return out;
  }

  RunOutcome run_traced(Tracer& tracer, Layers& layers) override {
    const CacheCounts before = CacheCounts::now();
    core::SimResult r;
    {
      Tracer::Scope s(tracer, "core.run_experiment");
      r = simulate(config_);
    }
    CacheCounts::now().to_layers_since(before, layers);
    layers["trace.wall_traced_s"] = tracer.total("core.run_experiment");
    WorkCounts counts;
    counts.add(r);
    counts.to_layers(layers);
    set_run_quantiles(tracer, "core.run_experiment", layers);
    const RunOutcome out = outcome(r);
    probe(r, out, tracer, layers);
    return out;
  }

 protected:
  core::SimResult simulate(const core::ExperimentConfig& config) const {
    return core::run_experiment(config, core::thread_workspace());
  }
  RunOutcome outcome(const core::SimResult& r) const {
    return r.streamed ? outcome_of_stream(r) : outcome_of_records(r);
  }
  /// Workload-specific probes after the traced timed phase.
  virtual void probe(const core::SimResult& r, const RunOutcome& out,
                     Tracer& tracer, Layers& layers) = 0;

  /// Calibrated per-cluster Lublin parameters, as the experiment derives
  /// them (one Monte-Carlo estimate per cluster).
  std::vector<workload::LublinParams> calibrate(Tracer& tracer,
                                                util::Rng& rng) const {
    std::vector<workload::LublinParams> out;
    Tracer::Scope s(tracer, "workload.calibrate_params");
    for (std::size_t i = 0; i < config_.n_clusters; ++i) {
      out.push_back(workload::calibrate_params(
          config_.base_workload, config_.nodes_of(i),
          config_.target_utilization, rng));
    }
    return out;
  }

  core::ExperimentConfig config_;
};

// ---------------------------------------------------------------------------
// grid_windowed: the grid-scale streaming shape, cut down to seconds.

class GridWindowed final : public SingleRun {
 public:
  GridWindowed(std::uint64_t seed, Scale scale) {
    const bool toy = scale == Scale::kToy;
    config_.n_clusters = toy ? 16 : 256;
    config_.nodes_per_cluster = 128;
    config_.load_mode = core::LoadMode::kCalibrated;
    config_.target_utilization = 0.7;
    config_.submit_horizon = (toy ? 1.0 : 10.0) * kHour;
    config_.scheme = core::RedundancyScheme::fixed(4);
    config_.redundant_fraction = 0.5;
    config_.retain_records = false;
    config_.stream_window = 256;
    config_.seed = seed;
  }

  std::uint64_t generate(Tracer& tracer, Layers&) override {
    util::Rng master(config_.seed);
    util::Rng calib = master.fork(0);
    const std::vector<workload::LublinParams> params = calibrate(tracer, calib);
    const workload::ExactEstimator exact;
    std::uint64_t jobs = 0;
    workload::JobStream buf;
    for (std::size_t i = 0; i < config_.n_clusters; ++i) {
      const util::Rng stream_rng = master.fork(1 + 2 * i);
      const util::Rng est_rng = master.fork(2 + 2 * i);
      workload::CheckpointedTrace table;
      {
        Tracer::Scope s(tracer, "workload.scan_checkpoints");
        table = workload::scan_checkpoints(
            params[i], config_.nodes_per_cluster, config_.submit_horizon,
            stream_rng, est_rng, exact, config_.stream_window);
      }
      if (table.checkpoints.empty()) continue;
      Tracer::Scope s(tracer, "workload.stream_window_next");
      workload::StreamWindow window(params[i], config_.nodes_per_cluster,
                                    config_.submit_horizon,
                                    table.checkpoints.front(), exact);
      while (window.next(config_.stream_window, buf) > 0) jobs += buf.size();
    }
    return jobs;
  }

 private:
  void probe(const core::SimResult&, const RunOutcome& out, Tracer& tracer,
             Layers& layers) override {
    fold_retained_twin(config_, out, tracer, layers);
  }
};

// ---------------------------------------------------------------------------
// swf_cbf: SWF replay under conservative backfilling.

class SwfCbf final : public SingleRun {
 public:
  SwfCbf(std::uint64_t seed, Scale scale, const std::string& scratch_dir)
      : scratch_dir_(scratch_dir) {
    const bool toy = scale == Scale::kToy;
    config_.n_clusters = 8;
    config_.nodes_per_cluster = 128;
    config_.algorithm = sched::Algorithm::kCbf;
    config_.submit_horizon = (toy ? 10.0 : 400.0) * kHour;
    config_.scheme = core::RedundancyScheme::fixed(3);
    config_.redundant_fraction = 0.5;
    config_.retain_records = false;
    config_.stream_window = 256;
    config_.seed = seed;
    write_inputs();
  }

  std::uint64_t generate(Tracer& tracer, Layers& layers) override {
    std::uint64_t jobs = 0;
    std::uint64_t spool_bytes = 0;
    workload::JobStream buf;
    for (const std::string& path : config_.trace_files) {
      workload::JobStream stream;
      {
        Tracer::Scope s(tracer, "workload.read_swf_file");
        stream = workload::read_swf_file(path);
      }
      auto spool = std::make_shared<workload::WindowSpool>(
          config_.stream_window, scratch_dir_);
      {
        Tracer::Scope s(tracer, "workload.spool_append");
        for (const workload::JobSpec& spec : stream) spool->append(spec);
        spool->finish();
      }
      spool_bytes += spool->file_bytes();
      Tracer::Scope s(tracer, "workload.spool_read");
      workload::WindowSpool::Reader reader(spool);
      while (reader.next(config_.stream_window, buf) > 0) jobs += buf.size();
    }
    layers["workload.spool_mb"] = static_cast<double>(spool_bytes) / kMiB;
    return jobs;
  }

 private:
  // Offered load of each trace. CBF profile work grows with queue length;
  // at 0.8 the queue excursions of single traces made one seed's timed run
  // 25-35% slower than another's, at 0.7 the gap is under 10%.
  static constexpr double kUtilization = 0.7;

  // One Lublin stream per cluster, with submit times floored to 10 s so
  // that arrivals tie within a file and across clusters.
  void write_inputs() {
    util::Rng master(config_.seed);
    util::Rng calib = master.fork(0);
    for (std::size_t f = 0; f < config_.n_clusters; ++f) {
      const workload::LublinParams params = workload::calibrate_params(
          workload::LublinParams{}, config_.nodes_per_cluster, kUtilization,
          calib);
      util::Rng rng = master.fork(1 + f);
      workload::JobStream stream = workload::LublinModel(
          params, config_.nodes_per_cluster).generate_stream(rng,
                                                             config_.submit_horizon);
      for (workload::JobSpec& spec : stream) {
        spec.submit_time = 10.0 * std::floor(spec.submit_time / 10.0);
      }
      const std::string path = (std::filesystem::path(scratch_dir_) /
                                ("trace" + std::to_string(f) + ".swf"))
                                   .string();
      workload::write_swf_file(path, stream);
      config_.trace_files.push_back(path);
    }
  }

  void probe(const core::SimResult&, const RunOutcome& out, Tracer& tracer,
             Layers& layers) override {
    fold_retained_twin(config_, out, tracer, layers);
  }

  std::string scratch_dir_;
};

// ---------------------------------------------------------------------------
// pdes_latency: the conservative PDES kernel at 60 s cross-cluster latency.

class PdesLatency final : public SingleRun {
 public:
  PdesLatency(std::uint64_t seed, Scale scale) {
    const bool toy = scale == Scale::kToy;
    config_.n_clusters = 8;
    config_.nodes_per_cluster = 128;
    config_.load_mode = core::LoadMode::kCalibrated;
    config_.target_utilization = 0.7;
    config_.submit_horizon = (toy ? 5.0 : 150.0) * kHour;
    config_.scheme = core::RedundancyScheme::fixed(4);
    config_.redundant_fraction = 0.5;
    config_.pdes = true;
    config_.cross_cluster_latency = 60.0;
    config_.pdes_jobs = 1;
    config_.seed = seed;
  }

  std::uint64_t generate(Tracer& tracer, Layers&) override {
    util::Rng master(config_.seed);
    util::Rng calib = master.fork(0);
    const std::vector<workload::LublinParams> params = calibrate(tracer, calib);
    const workload::ExactEstimator exact;
    std::uint64_t jobs = 0;
    for (std::size_t i = 0; i < config_.n_clusters; ++i) {
      util::Rng stream_rng = master.fork(1 + 2 * i);
      util::Rng est_rng = master.fork(2 + 2 * i);
      Tracer::Scope s(tracer, "workload.generate_stream");
      workload::JobStream stream =
          workload::LublinModel(params[i], config_.nodes_per_cluster)
              .generate_stream(stream_rng, config_.submit_horizon);
      workload::apply_estimator(stream, exact, est_rng);
      jobs += stream.size();
    }
    return jobs;
  }

 private:
  void probe(const core::SimResult& r, const RunOutcome& out, Tracer& tracer,
             Layers& layers) override {
    {
      Tracer::Scope s(tracer, "metrics.compute_classified_metrics");
      (void)metrics::compute_classified_metrics(r.records);
    }
    layers["metrics.fold_ns_per_job"] =
        tracer.total("metrics.compute_classified_metrics") * 1e9 /
        static_cast<double>(std::max<std::size_t>(1, r.records.size()));
    // The same run on two workers: results must not change; the wall-time
    // ratio is what a later threaded PDES workload would need above 1.
    core::ExperimentConfig two = config_;
    two.pdes_jobs = 2;
    core::SimResult r2;
    {
      Tracer::Scope s(tracer, "core.run_experiment_pdes2w");
      r2 = core::run_experiment(two);
    }
    if (outcome(r2).checksum != out.checksum) {
      throw std::runtime_error("PDES outcome changed with two workers");
    }
    layers["exec.pdes_speedup_2w"] = tracer.total("core.run_experiment") /
                                     tracer.total("core.run_experiment_pdes2w");
  }
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale,
                                        const std::string& scratch_dir) {
  if (name == "paper_fig1") return std::make_unique<PaperFig1>(seed, scale);
  if (name == "grid_windowed") {
    return std::make_unique<GridWindowed>(seed, scale);
  }
  if (name == "swf_cbf") {
    return std::make_unique<SwfCbf>(seed, scale, scratch_dir);
  }
  if (name == "pdes_latency") return std::make_unique<PdesLatency>(seed, scale);
  return nullptr;
}

}  // namespace perfbench

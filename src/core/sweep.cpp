#include "rrsim/core/sweep.h"

#include <bit>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "rrsim/metrics/summary.h"
#include "rrsim/util/stats.h"
#include "rrsim/workload/trace_cache.h"

namespace rrsim::core {

namespace {

// FNV-1a, byte-at-a-time. Doubles are mixed on their exact bit patterns —
// the same "identical bits" contract as workload::TraceKey.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte((v >> (8 * i)) & 0xff);
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
    u64(s.size());  // length-delimited: "ab","c" != "a","bc"
  }
};

}  // namespace

std::uint64_t trace_affinity(const ExperimentConfig& config) {
  // Exactly the fields that reach the memoized inputs — CalibrationKey
  // (seed, cluster shape, load mode and target), TraceKey (the per-cluster
  // workload parameters), DrawSegmentKey, and SpoolKey. Treatment knobs
  // the cache deliberately ignores (scheme, fraction, placement,
  // scheduler, protocol) are deliberately absent here too: points
  // differing only in them share every cached entry, which is the sharing
  // this affinity exists to exploit.
  Fnv f;
  f.u64(config.seed);
  f.u64(config.n_clusters);
  f.u64(static_cast<std::uint64_t>(config.nodes_per_cluster));
  for (const int n : config.cluster_nodes) {
    f.u64(static_cast<std::uint64_t>(n));
  }
  f.u64(config.cluster_nodes.size());
  f.u64(static_cast<std::uint64_t>(config.load_mode));
  f.f64(config.target_utilization);
  f.f64(config.base_workload.mean_interarrival());
  for (const double iat : config.cluster_mean_iat) f.f64(iat);
  f.u64(config.cluster_mean_iat.size());
  f.f64(config.submit_horizon);
  f.str(config.estimator);
  f.u64(static_cast<std::uint64_t>(config.users_per_cluster));
  f.u64(config.stream_window);
  for (const std::string& path : config.trace_files) f.str(path);
  f.u64(config.trace_files.size());
  // 0 is SweepRunner's "no affinity" opt-out; never collide with it.
  return f.h == 0 ? 1 : f.h;
}

namespace {

// Mode-agnostic metric extraction: retained runs go through the batch
// functions over the record vector (the historical, bit-exact path);
// streaming runs read the same quantities off the per-run accumulator,
// which was fed the identical per-job values in the identical order.
metrics::ScheduleMetrics metrics_of(const SimResult& r) {
  return r.streamed ? r.stream.metrics() : metrics::compute_metrics(r.records);
}

metrics::ClassifiedMetrics classified_of(const SimResult& r) {
  return r.streamed ? r.stream.classified()
                    : metrics::compute_classified_metrics(r.records);
}

}  // namespace

CampaignSweep::CampaignSweep(int reps, int jobs)
    : reps_(reps), runner_(jobs) {
  if (reps < 1) throw std::invalid_argument("reps must be >= 1");
}

void CampaignSweep::run() {
  const workload::TraceCache& cache = workload::TraceCache::global();
  const std::uint64_t sh = cache.hits();
  const std::uint64_t sm = cache.misses();
  const std::uint64_t ch = cache.checkpoint_hits();
  const std::uint64_t cm = cache.checkpoint_misses();
  const std::uint64_t dh = cache.draw_hits();
  const std::uint64_t dm = cache.draw_misses();
  const std::uint64_t lh = cache.calibration_hits();
  const std::uint64_t lm = cache.calibration_misses();
  const std::uint64_t ph = cache.spool_hits();
  const std::uint64_t pm = cache.spool_misses();
  runner_.run();
  last_cache_stats_.stream_hits = cache.hits() - sh;
  last_cache_stats_.stream_misses = cache.misses() - sm;
  last_cache_stats_.checkpoint_hits = cache.checkpoint_hits() - ch;
  last_cache_stats_.checkpoint_misses = cache.checkpoint_misses() - cm;
  last_cache_stats_.draw_hits = cache.draw_hits() - dh;
  last_cache_stats_.draw_misses = cache.draw_misses() - dm;
  last_cache_stats_.calibration_hits = cache.calibration_hits() - lh;
  last_cache_stats_.calibration_misses = cache.calibration_misses() - lm;
  last_cache_stats_.spool_hits = cache.spool_hits() - ph;
  last_cache_stats_.spool_misses = cache.spool_misses() - pm;
}

// Replications run through the worker thread's persistent workspace: the
// map stage is the only code that executes on pool threads, and each
// thread owns exactly one workspace, so no locking is needed and arenas
// stay warm across every unit the thread picks up.

void CampaignSweep::add_relative(
    const ExperimentConfig& config,
    std::function<void(const RelativeMetrics&)> done) {
  if (config.scheme.is_none()) {
    throw std::invalid_argument("relative campaign needs a non-NONE scheme");
  }
  struct RepOutcome {
    bool valid = false;
    double rel_stretch = 0.0;
    double rel_cv = 0.0;
    double rel_max = 0.0;
    double rel_turnaround = 0.0;
  };
  struct Acc {
    util::OnlineStats rel_stretch;
    util::OnlineStats rel_cv;
    util::OnlineStats rel_max;
    util::OnlineStats rel_turnaround;
    int wins = 0;
    RelativeMetrics out;
  };
  auto acc = std::make_shared<Acc>();
  acc->out.per_rep_rel_stretch.reserve(static_cast<std::size_t>(reps_));
  runner_.add_affine(
      reps_, trace_affinity(config),
      [config](int r) {
        ExperimentConfig with = config;
        with.seed = config.seed + static_cast<std::uint64_t>(r);
        ExperimentConfig without = with;
        without.scheme = RedundancyScheme::none();

        ExperimentWorkspace& ws = thread_workspace();
        const metrics::ScheduleMetrics m_with =
            metrics_of(run_experiment(with, ws));
        const metrics::ScheduleMetrics m_without =
            metrics_of(run_experiment(without, ws));
        RepOutcome o;
        if (m_without.avg_stretch <= 0.0 ||
            m_without.cv_stretch_percent <= 0.0 ||
            m_without.avg_turnaround <= 0.0 || m_without.max_stretch <= 0.0) {
          return o;  // degenerate repetition (e.g. empty stream); skip
        }
        o.valid = true;
        o.rel_stretch = m_with.avg_stretch / m_without.avg_stretch;
        o.rel_cv = m_with.cv_stretch_percent / m_without.cv_stretch_percent;
        o.rel_max = m_with.max_stretch / m_without.max_stretch;
        o.rel_turnaround = m_with.avg_turnaround / m_without.avg_turnaround;
        return o;
      },
      [acc, done = std::move(done), reps = reps_](int r, RepOutcome o) {
        if (o.valid) {
          acc->rel_stretch.add(o.rel_stretch);
          acc->rel_cv.add(o.rel_cv);
          acc->rel_max.add(o.rel_max);
          acc->rel_turnaround.add(o.rel_turnaround);
          if (o.rel_stretch < 1.0) ++acc->wins;
          acc->out.per_rep_rel_stretch.push_back(o.rel_stretch);
        }
        if (r != reps - 1) return;
        RelativeMetrics& out = acc->out;
        out.reps = acc->rel_stretch.count();
        if (out.reps != 0) {
          out.rel_avg_stretch = acc->rel_stretch.mean();
          out.rel_cv_stretch = acc->rel_cv.mean();
          out.rel_max_stretch = acc->rel_max.mean();
          out.rel_avg_turnaround = acc->rel_turnaround.mean();
          out.win_rate = static_cast<double>(acc->wins) /
                         static_cast<double>(out.reps);
          out.worst_rel_stretch = acc->rel_stretch.max();
        }
        done(out);
      });
}

void CampaignSweep::add_classified(
    const ExperimentConfig& config,
    std::function<void(const ClassifiedCampaign&)> done) {
  struct Acc {
    util::OnlineStats all;
    util::OnlineStats red;
    util::OnlineStats non;
    std::size_t red_jobs = 0;
    std::size_t non_jobs = 0;
  };
  auto acc = std::make_shared<Acc>();
  runner_.add_affine(
      reps_, trace_affinity(config),
      [config](int r) {
        ExperimentConfig c = config;
        c.seed = config.seed + static_cast<std::uint64_t>(r);
        return classified_of(run_experiment(c, thread_workspace()));
      },
      [acc, done = std::move(done), reps = reps_](int r,
                                                  metrics::ClassifiedMetrics
                                                      m) {
        if (m.all.jobs > 0) acc->all.add(m.all.avg_stretch);
        if (m.redundant.jobs > 0) acc->red.add(m.redundant.avg_stretch);
        if (m.non_redundant.jobs > 0) {
          acc->non.add(m.non_redundant.avg_stretch);
        }
        acc->red_jobs += m.redundant.jobs;
        acc->non_jobs += m.non_redundant.jobs;
        if (r != reps - 1) return;
        ClassifiedCampaign out;
        out.reps = static_cast<std::size_t>(reps);
        out.avg_stretch_all = acc->all.mean();
        out.avg_stretch_redundant = acc->red.mean();
        out.avg_stretch_non_redundant = acc->non.mean();
        out.redundant_jobs = acc->red_jobs;
        out.non_redundant_jobs = acc->non_jobs;
        done(out);
      });
}

void CampaignSweep::add_prediction(
    const ExperimentConfig& config,
    std::function<void(const PredictionCampaign&)> done) {
  struct Pool {
    metrics::JobRecords records;        // retained: records of every rep
    metrics::OnlineAccumulator stream;  // streaming: Welford-merged reps
    bool streamed = false;
  };
  auto pooled = std::make_shared<Pool>();
  runner_.add_affine(
      reps_, trace_affinity(config),
      [config](int r) {
        ExperimentConfig c = config;
        c.seed = config.seed + static_cast<std::uint64_t>(r);
        c.record_predictions = true;
        return run_experiment(c, thread_workspace());
      },
      [pooled, done = std::move(done), reps = reps_](int r, SimResult result) {
        if (result.streamed) {
          // The reduce stage runs in rep order, so the parallel Welford
          // merge pools deterministically: counts are exact, the pooled
          // mean/CV agree with the retained concatenation to rounding.
          pooled->streamed = true;
          pooled->stream.merge(result.stream);
        } else {
          pooled->records.insert(
              pooled->records.end(),
              std::make_move_iterator(result.records.begin()),
              std::make_move_iterator(result.records.end()));
        }
        if (r != reps - 1) return;
        PredictionCampaign out;
        out.reps = static_cast<std::size_t>(reps);
        if (pooled->streamed) {
          out.all = pooled->stream.prediction();
          out.redundant = pooled->stream.prediction(true);
          out.non_redundant = pooled->stream.prediction(false);
        } else {
          out.all = metrics::compute_prediction_accuracy(pooled->records);
          out.redundant =
              metrics::compute_prediction_accuracy(pooled->records, true);
          out.non_redundant =
              metrics::compute_prediction_accuracy(pooled->records, false);
        }
        done(out);
      });
}

void CampaignSweep::add_experiments(
    const ExperimentConfig& config,
    std::function<void(int, const SimResult&)> per_rep) {
  runner_.add_affine(
      reps_, trace_affinity(config),
      [config](int r) {
        ExperimentConfig c = config;
        c.seed = config.seed + static_cast<std::uint64_t>(r);
        return run_experiment(c, thread_workspace());
      },
      [per_rep = std::move(per_rep)](int r, SimResult result) {
        per_rep(r, result);
      });
}

}  // namespace rrsim::core

#include "rrsim/core/sweep.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "rrsim/metrics/summary.h"
#include "rrsim/util/stats.h"
#include "rrsim/workload/trace_cache.h"

namespace rrsim::core {

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
  // The batch's shared runs are reachable only through its queued tasks
  // from here on: a later add_relative() queues fresh runs, never reading
  // a slot this batch fills — or, if run() throws, leaves unfilled.
  runs_.clear();
  SweepRunStats batch;
  batch.executed = runner_.pending_units();
  batch.requested = batch.executed + std::exchange(reused_, 0);
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
  last_run_stats_ = batch;
}

// Replications run through the worker thread's persistent workspace: the
// map stage is the only code that executes on pool threads, and each
// thread owns exactly one workspace, so no locking is needed and arenas
// stay warm across every unit the thread picks up.

std::shared_ptr<const CampaignSweep::RunMetrics> CampaignSweep::shared_run(
    const ExperimentConfig& config) {
  for (const auto& [queued, slot] : runs_) {
    if (queued == config) {
      reused_ += static_cast<std::uint64_t>(reps_);
      return slot;
    }
  }
  auto slot = std::make_shared<RunMetrics>(static_cast<std::size_t>(reps_));
  runner_.add(
      reps_,
      [config](int r) {
        ExperimentConfig c = config;
        c.seed = config.seed + static_cast<std::uint64_t>(r);
        return metrics_of(run_experiment(c, thread_workspace()));
      },
      [slot](int r, metrics::ScheduleMetrics m) {
        (*slot)[static_cast<std::size_t>(r)] = m;
      });
  runs_.emplace_back(config, slot);
  return slot;
}

void CampaignSweep::add_relative(
    const ExperimentConfig& config,
    std::function<void(const RelativeMetrics&)> done) {
  if (config.scheme.is_none()) {
    throw std::invalid_argument("relative campaign needs a non-NONE scheme");
  }
  ExperimentConfig with = config;
  with.scheme = config.scheme.effective(config.n_clusters);
  ExperimentConfig without = config;
  without.scheme = RedundancyScheme::none();
  // Queued before the fold, so their reductions have filled both slots by
  // the time it runs.
  std::shared_ptr<const RunMetrics> m_with = shared_run(with);
  std::shared_ptr<const RunMetrics> m_without = shared_run(without);
  runner_.then([m_with = std::move(m_with), m_without = std::move(m_without),
                done = std::move(done)] {
    util::OnlineStats rel_stretch;
    util::OnlineStats rel_cv;
    util::OnlineStats rel_max;
    util::OnlineStats rel_turnaround;
    int wins = 0;
    RelativeMetrics out;
    out.per_rep_rel_stretch.reserve(m_with->size());
    for (std::size_t r = 0; r < m_with->size(); ++r) {
      const metrics::ScheduleMetrics& w = (*m_with)[r];
      const metrics::ScheduleMetrics& b = (*m_without)[r];
      if (b.avg_stretch <= 0.0 || b.cv_stretch_percent <= 0.0 ||
          b.avg_turnaround <= 0.0 || b.max_stretch <= 0.0) {
        continue;  // degenerate repetition (e.g. empty stream); skip
      }
      const double rel = w.avg_stretch / b.avg_stretch;
      rel_stretch.add(rel);
      rel_cv.add(w.cv_stretch_percent / b.cv_stretch_percent);
      rel_max.add(w.max_stretch / b.max_stretch);
      rel_turnaround.add(w.avg_turnaround / b.avg_turnaround);
      if (rel < 1.0) ++wins;
      out.per_rep_rel_stretch.push_back(rel);
    }
    out.reps = rel_stretch.count();
    if (out.reps != 0) {
      out.rel_avg_stretch = rel_stretch.mean();
      out.rel_cv_stretch = rel_cv.mean();
      out.rel_max_stretch = rel_max.mean();
      out.rel_avg_turnaround = rel_turnaround.mean();
      out.win_rate =
          static_cast<double>(wins) / static_cast<double>(out.reps);
      out.worst_rel_stretch = rel_stretch.max();
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
  runner_.add(
      reps_,
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
  // The ratios pool every repetition's jobs, so the records must be kept.
  if (!config.retain_records) {
    throw std::invalid_argument(
        "prediction campaign needs retain_records (it pools the records "
        "of every repetition)");
  }
  auto pooled = std::make_shared<metrics::JobRecords>();
  runner_.add(
      reps_,
      [config](int r) {
        ExperimentConfig c = config;
        c.seed = config.seed + static_cast<std::uint64_t>(r);
        c.record_predictions = true;
        return run_experiment(c, thread_workspace()).records;
      },
      [pooled, done = std::move(done), reps = reps_](
          int r, metrics::JobRecords records) {
        pooled->insert(pooled->end(),
                       std::make_move_iterator(records.begin()),
                       std::make_move_iterator(records.end()));
        if (r != reps - 1) return;
        PredictionCampaign out;
        out.reps = static_cast<std::size_t>(reps);
        out.all = metrics::compute_prediction_accuracy(*pooled);
        out.redundant = metrics::compute_prediction_accuracy(*pooled, true);
        out.non_redundant =
            metrics::compute_prediction_accuracy(*pooled, false);
        done(out);
      });
}

}  // namespace rrsim::core

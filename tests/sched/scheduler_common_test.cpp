// Invariants that must hold for every scheduling algorithm, exercised as
// parameterised property sweeps over algorithm x seed.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "rrsim/sched/cbf.h"
#include "rrsim/sched/factory.h"
#include "rrsim/util/rng.h"
#include "rrsim/workload/lublin.h"

namespace rrsim::sched {
namespace {

using Param = std::tuple<Algorithm, std::uint64_t>;

class SchedulerInvariants : public ::testing::TestWithParam<Param> {};

struct RunOutcome {
  std::map<JobId, Job> finished;
  int max_nodes_used = 0;
  bool oversubscribed = false;
};

RunOutcome run_random_workload(Algorithm algo, std::uint64_t seed,
                               int cluster_nodes, int jobs,
                               double cancel_fraction) {
  des::Simulation sim;
  auto sched = make_scheduler(algo, sim, cluster_nodes);
  RunOutcome outcome;

  ClusterScheduler::Callbacks cb;
  cb.on_start = [&](const Job&) {
    const int used = cluster_nodes - sched->free_nodes();
    outcome.max_nodes_used = std::max(outcome.max_nodes_used, used);
    if (used > cluster_nodes || sched->free_nodes() < 0) {
      outcome.oversubscribed = true;
    }
  };
  cb.on_finish = [&](const Job& j) { outcome.finished[j.id] = j; };
  sched->set_callbacks(std::move(cb));

  util::Rng rng(seed);
  const workload::LublinModel model(workload::LublinParams{}, cluster_nodes);
  double t = 0.0;
  std::vector<JobId> cancellable;
  for (JobId id = 1; id <= static_cast<JobId>(jobs); ++id) {
    t += rng.uniform(0.1, 30.0);
    const workload::JobSpec spec = model.sample_job(rng);
    Job job;
    job.id = id;
    job.nodes = spec.nodes;
    job.actual_time = spec.runtime;
    // Mix of exact and over-estimated requests.
    job.requested_time =
        rng.chance(0.5) ? spec.runtime : spec.runtime * rng.uniform(1.0, 4.0);
    sim.schedule_at(t, [&s = *sched, job] { s.submit(job); },
                    des::Priority::kArrival);
    if (rng.chance(cancel_fraction)) {
      const double cancel_at = t + rng.uniform(0.0, 60.0);
      sim.schedule_at(cancel_at, [&s = *sched, id] { s.cancel(id); },
                      des::Priority::kCancel);
    }
  }
  sim.run();
  return outcome;
}

TEST_P(SchedulerInvariants, NoOversubscriptionAndFullDrain) {
  const auto [algo, seed] = GetParam();
  const RunOutcome outcome = run_random_workload(algo, seed, 32, 120, 0.0);
  EXPECT_FALSE(outcome.oversubscribed);
  EXPECT_LE(outcome.max_nodes_used, 32);
  // Without cancellations, every submitted job finishes exactly once.
  EXPECT_EQ(outcome.finished.size(), 120u);
}

TEST_P(SchedulerInvariants, FinishedJobsHaveConsistentTimes) {
  const auto [algo, seed] = GetParam();
  const RunOutcome outcome = run_random_workload(algo, seed, 32, 100, 0.0);
  for (const auto& [id, job] : outcome.finished) {
    ASSERT_EQ(job.state, JobState::kFinished);
    ASSERT_GE(job.start_time, job.submit_time);
    ASSERT_DOUBLE_EQ(job.finish_time, job.start_time + job.actual_time);
    ASSERT_LE(job.actual_time, job.requested_time + 1e-12);
  }
}

TEST_P(SchedulerInvariants, CancellationsNeverBreakConservation) {
  const auto [algo, seed] = GetParam();
  const RunOutcome outcome = run_random_workload(algo, seed, 32, 100, 0.3);
  // Every job either finished exactly once or was cancelled; the run
  // draining at all (sim.run() returned) proves no event deadlock.
  EXPECT_LE(outcome.finished.size(), 100u);
  EXPECT_FALSE(outcome.oversubscribed);
}

TEST_P(SchedulerInvariants, DeterministicAcrossRuns) {
  const auto [algo, seed] = GetParam();
  const RunOutcome a = run_random_workload(algo, seed, 32, 80, 0.2);
  const RunOutcome b = run_random_workload(algo, seed, 32, 80, 0.2);
  ASSERT_EQ(a.finished.size(), b.finished.size());
  for (const auto& [id, job] : a.finished) {
    const auto it = b.finished.find(id);
    ASSERT_NE(it, b.finished.end());
    ASSERT_EQ(job.start_time, it->second.start_time);
    ASSERT_EQ(job.finish_time, it->second.finish_time);
  }
}

TEST_P(SchedulerInvariants, HypotheticalPredictionIsValidStart) {
  // Only CBF predicts at submit: the prediction is the reservation the job
  // got, no earlier than its submit time. FCFS and EASY predict nothing.
  const auto [algo, seed] = GetParam();
  des::Simulation sim;
  auto sched = make_scheduler(algo, sim, 16);
  const auto* cbf = dynamic_cast<const CbfScheduler*>(sched.get());
  ASSERT_EQ(cbf != nullptr, algo == Algorithm::kCbf);
  std::map<JobId, Time> started;
  ClusterScheduler::Callbacks cb;
  cb.on_start = [&started](const Job& j) { started[j.id] = j.start_time; };
  sched->set_callbacks(std::move(cb));
  util::Rng rng(seed);
  int checked = 0;
  for (JobId id = 1; id <= 20; ++id) {
    Job job;
    job.id = id;
    job.nodes = static_cast<int>(rng.between(1, 16));
    job.requested_time = rng.uniform(10.0, 100.0);
    job.actual_time = job.requested_time;
    // Checked as submit() returns, before a later event can compress the
    // reservation; a job that started inside submit() started at it.
    sim.schedule_at(rng.uniform(0.0, 60.0), [&, job] {
      ASSERT_TRUE(sched->submit(job));
      const std::optional<Time> p = sched->predicted_start_at_submit(job.id);
      ++checked;
      if (cbf == nullptr) {
        EXPECT_FALSE(p.has_value()) << "job " << job.id;
        return;
      }
      ASSERT_TRUE(p.has_value()) << "job " << job.id;
      EXPECT_GE(*p, sim.now()) << "job " << job.id;
      const auto it = started.find(job.id);
      const std::optional<Time> reserved =
          it != started.end() ? it->second : cbf->current_reservation(job.id);
      EXPECT_EQ(reserved, p) << "job " << job.id;
    });
  }
  sim.run();
  EXPECT_EQ(checked, 20);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndSeeds, SchedulerInvariants,
    ::testing::Combine(::testing::Values(Algorithm::kFcfs, Algorithm::kEasy,
                                         Algorithm::kCbf),
                       ::testing::Values(1u, 2u, 3u, 7u, 2026u)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      return algorithm_name(std::get<0>(param_info.param)) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(Factory, ParseAndNames) {
  EXPECT_EQ(parse_algorithm("fcfs"), Algorithm::kFcfs);
  EXPECT_EQ(parse_algorithm("easy"), Algorithm::kEasy);
  EXPECT_EQ(parse_algorithm("cbf"), Algorithm::kCbf);
  EXPECT_THROW(parse_algorithm("EASY"), std::invalid_argument);
  EXPECT_EQ(algorithm_name(Algorithm::kEasy), "easy");
}

TEST(Factory, MakesWorkingSchedulers) {
  des::Simulation sim;
  for (const Algorithm algo :
       {Algorithm::kFcfs, Algorithm::kEasy, Algorithm::kCbf}) {
    auto s = make_scheduler(algo, sim, 4);
    EXPECT_EQ(s->total_nodes(), 4);
    EXPECT_EQ(s->name(), algorithm_name(algo));
  }
}

TEST(Scheduler, RejectsZeroNodeCluster) {
  des::Simulation sim;
  EXPECT_THROW(make_scheduler(Algorithm::kEasy, sim, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace rrsim::sched

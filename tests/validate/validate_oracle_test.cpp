// Exercises the RRSIM_VALIDATE invariant layer from both sides: a full
// redundant-request run with every validator armed must stay silent, and
// each corruption hook — a deliberately planted bug of the class the
// validator exists to catch — must abort the process with the expected
// message. This binary compiles the core sources directly with
// RRSIM_VALIDATE=1, so the death tests work regardless of how the
// enclosing build was configured.
#include <gtest/gtest.h>

#include "rrsim/des/simulation.h"
#include "rrsim/grid/gateway.h"
#include "rrsim/grid/platform.h"
#include "rrsim/sched/cbf.h"
#include "rrsim/sched/pending_queue.h"
#include "rrsim/sched/profile.h"

namespace rrsim {
namespace {

static_assert(RRSIM_VALIDATE_ENABLED,
              "validate_tests must be compiled with RRSIM_VALIDATE=1");

grid::GridJob make_grid_job(grid::GridJobId id, std::size_t origin,
                            std::vector<std::size_t> targets, int nodes,
                            double runtime) {
  grid::GridJob job;
  job.id = id;
  job.origin = origin;
  job.targets = std::move(targets);
  job.redundant = job.targets.size() > 1;
  job.spec.nodes = nodes;
  job.spec.runtime = runtime;
  job.spec.requested_time = runtime;
  return job;
}

sched::Job make_job(sched::JobId id, int nodes, double runtime) {
  sched::Job job;
  job.id = id;
  job.nodes = nodes;
  job.requested_time = runtime;
  job.actual_time = runtime;
  return job;
}

// --- positive runs: armed validators stay silent --------------------------

TEST(ValidateClean, RedundantCampaignRunsWithValidatorsArmed) {
  for (const sched::Algorithm algo :
       {sched::Algorithm::kCbf, sched::Algorithm::kEasy,
        sched::Algorithm::kFcfs}) {
    des::Simulation sim;
    grid::Platform platform(sim, std::vector<int>(3, 8), algo);
    grid::Gateway gateway(platform);
    // Enough redundant jobs to queue, start, cancel siblings, and finish —
    // every per-operation validator fires many times along the way.
    for (grid::GridJobId id = 1; id <= 12; ++id) {
      const std::size_t origin = id % 3;
      gateway.submit(make_grid_job(id, origin, {0, 1, 2}, 4,
                                   30.0 + static_cast<double>(id)));
    }
    sim.run();
    EXPECT_EQ(gateway.finished(), 12u);
    gateway.debug_validate();
    for (std::size_t i = 0; i < platform.size(); ++i) {
      platform.scheduler(i).debug_validate();
    }
  }
}

TEST(ValidateClean, PerUserLimitRunKeepsItsPendingCountsExact) {
  // Under a limit, every submit, start, decline and cancel moves the
  // per-user table; the sweep checks it holds positive counts that sum to
  // the pending jobs, mid-run and once everything drained.
  for (const sched::Algorithm algo :
       {sched::Algorithm::kCbf, sched::Algorithm::kEasy,
        sched::Algorithm::kFcfs}) {
    des::Simulation sim;
    grid::Platform platform(sim, std::vector<int>(3, 8), algo);
    for (std::size_t i = 0; i < platform.size(); ++i) {
      platform.scheduler(i).set_per_user_pending_limit(1);
    }
    grid::Gateway gateway(platform);
    for (grid::GridJobId id = 1; id <= 12; ++id) {
      // Origin first: its replica is the exempt one.
      const std::size_t o = id % 3;
      grid::GridJob job = make_grid_job(id, o, {o, (o + 1) % 3, (o + 2) % 3},
                                        4, 30.0 + static_cast<double>(id));
      job.user = static_cast<sched::UserId>(id % 2);
      gateway.submit(std::move(job));
    }
    EXPECT_GT(platform.total_counters().rejects, 0u);
    for (std::size_t i = 0; i < platform.size(); ++i) {
      platform.scheduler(i).debug_validate();
    }
    sim.run();
    EXPECT_EQ(gateway.finished(), 12u);
    for (std::size_t i = 0; i < platform.size(); ++i) {
      platform.scheduler(i).debug_validate();
    }
  }
}

TEST(ValidateClean, CancelWhosePassStartsAJobUnderALimit) {
  // A cancel's pass may start a job before cancel() takes the cancelled
  // job off its user's pending count; the per-user check must wait for
  // that. Job 2 blocks job 3 until it is cancelled, under every algorithm.
  for (const sched::Algorithm algo :
       {sched::Algorithm::kCbf, sched::Algorithm::kEasy,
        sched::Algorithm::kFcfs}) {
    des::Simulation sim;
    grid::Platform platform(sim, std::vector<int>{4}, algo);
    sched::ClusterScheduler& sched = platform.scheduler(0);
    sched.set_per_user_pending_limit(2);
    sched.submit(make_job(1, 2, 100.0));  // runs
    sched.submit(make_job(2, 4, 100.0));  // waits for job 1
    sched.submit(make_job(3, 1, 1000.0));  // would delay job 2: waits
    ASSERT_EQ(sched.queue_length(), 2u);
    ASSERT_TRUE(sched.cancel(2));
    EXPECT_EQ(sched.running_count(), 2u);
    EXPECT_EQ(sched.queue_length(), 0u);
    sched.debug_validate();
    sim.run();
    EXPECT_EQ(sched.counters().finishes, 2u);
  }
}

TEST(ValidateClean, CbfResetMidRunStaysSilent) {
  // A run cut off while jobs still run (drain = false) leaves CBF with
  // footprint ends for them; reset must clear those before the base
  // reset's sweep checks them against the emptied running set.
  des::Simulation sim;
  sched::CbfScheduler sched(sim, 8);
  sched.submit(make_job(1, 4, 100.0));
  sched.submit(make_job(2, 8, 100.0));
  sim.run_until(10.0);
  ASSERT_EQ(sched.running_count(), 1u);
  sim.reset();
  sched.reset();
  EXPECT_EQ(sched.running_count(), 0u);
  EXPECT_EQ(sched.queue_length(), 0u);
  sched.submit(make_job(1, 8, 50.0));
  sim.run();
  EXPECT_EQ(sched.counters().finishes, 1u);
}

TEST(ValidateClean, ProfileSurvivesReserveReleaseChurn) {
  sched::Profile p(16);
  p.reserve(0.0, 10.0, 4);
  p.reserve(5.0, 10.0, 8);
  p.release(0.0, 10.0, 4);
  p.reserve(2.0, 6.0, 16 - 8);
  p.release_until(2.0, 8.0, 8);
  p.release(5.0, 10.0, 8);
  p.prune_before(1.0);
  p.debug_validate();
  EXPECT_EQ(p.free_at(100.0), 16);
}

TEST(ValidateClean, ResetFingerprintMatchesFreshSimulation) {
  des::Simulation sim;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(static_cast<des::Time>(i), [] {});
  }
  sim.run_until(25.0);
  sim.reset();  // the reset-coverage oracle runs inside
  EXPECT_EQ(sim.debug_fingerprint(), des::Simulation().debug_fingerprint());
}

// --- death tests: every planted corruption must trip its validator --------

TEST(ValidateDeath, DispatchOrderOracleTripsOnTimeRegression) {
  des::Simulation sim;
  sim.schedule_at(10.0, [] {});
  // Pretend an event at t=100 already fired; popping t=10 next is the
  // out-of-order dispatch a broken event queue would produce.
  sim.debug_force_dispatch_watermark(100.0);
  EXPECT_DEATH(sim.step(), "dispatch time went backwards");
}

TEST(ValidateDeath, ResetCoverageOracleTripsOnLeakedState) {
  des::Simulation sim;
  sim.schedule_at(1.0, [] {});
  sim.run();
  sim.debug_leak_state_on_reset(true);
  EXPECT_DEATH(sim.reset(),
               "reset\\(\\) state differs from a freshly constructed");
}

TEST(ValidateDeath, ProfileValidatorTripsOnBrokenCanonicalForm) {
  sched::Profile p(8);
  p.reserve(0.0, 5.0, 3);
  p.debug_break_canonical();
  EXPECT_DEATH(p.debug_validate(), "not canonical");
}

TEST(ValidateDeath, SchedulerValidatorTripsOnAccountingLeak) {
  des::Simulation sim;
  sched::CbfScheduler sched(sim, 8);
  sched.submit(make_job(1, 2, 100.0));
  sim.run_until(0.0);  // let the scheduling pass start the job
  sched.debug_corrupt_accounting();
  EXPECT_DEATH(sched.debug_validate(),
               "free-node count disagrees with the running set");
}

TEST(ValidateDeath, CbfValidatorTripsOnCorruptQueueIndex) {
  des::Simulation sim;
  sched::CbfScheduler sched(sim, 4);
  sched.submit(make_job(1, 4, 100.0));
  sched.submit(make_job(2, 4, 100.0));  // cannot start: stays queued
  sim.schedule_at(10.0, [&sched] { sched.submit(make_job(3, 4, 100.0)); });
  sim.run_until(10.0);
  ASSERT_EQ(sched.queue_length(), 2u);
  sched.debug_validate();
  sched.debug_corrupt_index();  // job 3 (submitted at 10) ahead of job 2
  EXPECT_DEATH(sched.debug_validate(),
               "queue_ no longer in submission \\(FCFS\\) order");
}

TEST(ValidateDeath, PendingQueueValidatorTripsOnCorruptIndex) {
  sched::PendingQueue queue;
  for (sched::JobId id = 1; id <= 3; ++id) {
    queue.push_back(make_job(id, 2, 10.0));
  }
  queue.debug_validate();
  queue.debug_corrupt_index();
  EXPECT_DEATH(queue.debug_validate(),
               "a live slot's id does not map back to it");
}

TEST(ValidateDeath, GatewayValidatorTripsOnUnmintedReplicaId) {
  des::Simulation sim;
  grid::Platform platform(sim, std::vector<int>(2, 8),
                          sched::Algorithm::kCbf);
  grid::Gateway gateway(platform);
  gateway.submit(make_grid_job(1, 0, {0, 1}, 4, 100.0));
  gateway.debug_validate();
  gateway.debug_corrupt_tracking();
  EXPECT_DEATH(gateway.debug_validate(),
               "was not minted by its job's origin partition");
}

}  // namespace
}  // namespace rrsim

// Per-user pending-request limits — the mitigation knob the paper's
// Sections 2 and 6 point to ("batch schedulers can typically be
// configured so that a single user can only have a limited number of
// pending requests").
#include <gtest/gtest.h>

#include <stdexcept>

#include "rrsim/sched/factory.h"

namespace rrsim::sched {
namespace {

Job make_job(JobId id, UserId user, int nodes = 4, Time requested = 100.0) {
  Job j;
  j.id = id;
  j.user = user;
  j.nodes = nodes;
  j.requested_time = requested;
  j.actual_time = requested;
  return j;
}

class UserLimits : public ::testing::TestWithParam<Algorithm> {};

TEST_P(UserLimits, RejectsBeyondPendingCap) {
  des::Simulation sim;
  auto sched = make_scheduler(GetParam(), sim, 4);
  sched->set_per_user_pending_limit(2);
  // First job runs immediately (not pending); next two queue; the third
  // queued one must be refused.
  EXPECT_TRUE(sched->submit(make_job(1, 7)));
  EXPECT_TRUE(sched->submit(make_job(2, 7)));
  EXPECT_TRUE(sched->submit(make_job(3, 7)));
  EXPECT_FALSE(sched->submit(make_job(4, 7)));
  EXPECT_EQ(sched->counters().rejects, 1u);
  EXPECT_EQ(sched->queue_length(), 2u);
}

TEST_P(UserLimits, LimitIsPerUser) {
  des::Simulation sim;
  auto sched = make_scheduler(GetParam(), sim, 4);
  sched->set_per_user_pending_limit(1);
  EXPECT_TRUE(sched->submit(make_job(1, 7)));   // runs
  EXPECT_TRUE(sched->submit(make_job(2, 7)));   // pending (user 7: 1)
  EXPECT_FALSE(sched->submit(make_job(3, 7)));  // user 7 capped
  EXPECT_TRUE(sched->submit(make_job(4, 8)));   // other user unaffected
  EXPECT_FALSE(sched->submit(make_job(5, 8)));
}

TEST_P(UserLimits, ExemptJobsBypassTheCap) {
  des::Simulation sim;
  auto sched = make_scheduler(GetParam(), sim, 4);
  sched->set_per_user_pending_limit(0);  // nothing may pend...
  Job exempt = make_job(1, 7);
  exempt.limit_exempt = true;
  EXPECT_TRUE(sched->submit(exempt));  // ...except exempt submissions
  Job exempt2 = make_job(2, 7);
  exempt2.limit_exempt = true;
  EXPECT_TRUE(sched->submit(exempt2));
  EXPECT_FALSE(sched->submit(make_job(3, 7)));
}

TEST_P(UserLimits, StartsAndCancellationsReleaseSlots) {
  des::Simulation sim;
  auto sched = make_scheduler(GetParam(), sim, 4);
  sched->set_per_user_pending_limit(1);
  EXPECT_TRUE(sched->submit(make_job(1, 7, 4, 10.0)));  // runs
  EXPECT_TRUE(sched->submit(make_job(2, 7, 4, 10.0)));  // pending
  EXPECT_FALSE(sched->submit(make_job(3, 7, 4, 10.0)));
  // Cancelling the pending job frees the slot immediately.
  EXPECT_TRUE(sched->cancel(2));
  EXPECT_TRUE(sched->submit(make_job(4, 7, 4, 10.0)));
  // After everything runs, the pending count is zero again.
  sim.run();
  EXPECT_TRUE(sched->submit(make_job(5, 7, 4, 10.0)));
}

TEST_P(UserLimits, DisabledByDefault) {
  des::Simulation sim;
  auto sched = make_scheduler(GetParam(), sim, 4);
  for (JobId id = 1; id <= 20; ++id) {
    EXPECT_TRUE(sched->submit(make_job(id, 7)));
  }
  EXPECT_EQ(sched->counters().rejects, 0u);
}

TEST_P(UserLimits, RejectsNegativeLimit) {
  des::Simulation sim;
  auto sched = make_scheduler(GetParam(), sim, 4);
  EXPECT_THROW(sched->set_per_user_pending_limit(-1), std::invalid_argument);
}

TEST_P(UserLimits, EnablingALimitOverPendingJobsThrows) {
  // Counts are kept only while a limit is set, so a limit enabled over
  // pending jobs would start from a table that misses them.
  des::Simulation sim;
  auto sched = make_scheduler(GetParam(), sim, 4);
  EXPECT_TRUE(sched->submit(make_job(1, 7)));  // runs: not pending
  sched->set_per_user_pending_limit(1);        // allowed: nothing pends
  sched->set_per_user_pending_limit(std::nullopt);
  EXPECT_TRUE(sched->submit(make_job(2, 7)));  // pending
  EXPECT_THROW(sched->set_per_user_pending_limit(1), std::logic_error);
  // The refused call left the scheduler unlimited.
  EXPECT_TRUE(sched->submit(make_job(3, 7)));
  EXPECT_EQ(sched->counters().rejects, 0u);
  // Once nothing pends, a limit may be enabled again; while it is set,
  // its value may change over pending jobs.
  sim.run();
  sched->set_per_user_pending_limit(2);
  EXPECT_TRUE(sched->submit(make_job(4, 7)));  // runs
  EXPECT_TRUE(sched->submit(make_job(5, 7)));  // pending (user 7: 1)
  sched->set_per_user_pending_limit(1);
  EXPECT_FALSE(sched->submit(make_job(6, 7)));
  sched->set_per_user_pending_limit(std::nullopt);  // disabling is allowed
  EXPECT_TRUE(sched->submit(make_job(7, 7)));
}

// Live state after 10 000 one-job steps under a limit of 1, the jobs
// attributed round-robin to `users` users. Even-numbered jobs run at once
// for 60 s; each odd one arrives 30 s later and pends until the cluster
// frees, and every second odd one is cancelled while it pends. Then, under
// a limit of 0, 10 000 more submissions from the same users are refused.
// The schedule is the same for every user count.
std::size_t live_state_under_a_limit(Algorithm algorithm, UserId users) {
  des::Simulation sim;
  auto sched = make_scheduler(algorithm, sim, 4);
  sched->set_per_user_pending_limit(1);
  for (JobId j = 0; j < 10000; ++j) {
    const Time step = 100.0 * static_cast<Time>(j / 2);
    const bool odd = j % 2 == 1;
    Job job = make_job(j + 1, static_cast<UserId>(j % users), 4,
                       odd ? 20.0 : 60.0);
    sim.schedule_at(odd ? step + 30.0 : step,
                    [&sched, job] { EXPECT_TRUE(sched->submit(job)); });
    if (j % 4 == 3) {
      sim.schedule_at(step + 40.0, [&sched, id = job.id] {
        EXPECT_TRUE(sched->cancel(id));
      });
    }
  }
  sim.run();
  EXPECT_EQ(sched->counters().rejects, 0u);
  EXPECT_EQ(sched->counters().cancels, 2500u);
  EXPECT_EQ(sched->counters().finishes, 7500u);
  sched->set_per_user_pending_limit(0);
  for (JobId j = 0; j < 10000; ++j) {
    EXPECT_FALSE(
        sched->submit(make_job(10001 + j, static_cast<UserId>(j % users))));
  }
  return sched->live_state_bytes();
}

TEST_P(UserLimits, PendingTableHoldsOnlyUsersWithPendingJobs) {
  // A user's entry goes when its last pending job starts or is
  // cancelled, and a refused submission leaves none, so 10 000 distinct
  // users cost no more than 10.
  const std::size_t ten = live_state_under_a_limit(GetParam(), 10);
  const std::size_t distinct = live_state_under_a_limit(GetParam(), 10000);
  EXPECT_LE(distinct, ten);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, UserLimits,
                         ::testing::Values(Algorithm::kFcfs, Algorithm::kEasy,
                                           Algorithm::kCbf),
                         [](const ::testing::TestParamInfo<Algorithm>&
                                param_info) {
                           return algorithm_name(param_info.param);
                         });

}  // namespace
}  // namespace rrsim::sched

// Per-user pending-request limits — the mitigation knob the paper's
// Sections 2 and 6 point to ("batch schedulers can typically be
// configured so that a single user can only have a limited number of
// pending requests").
#include <gtest/gtest.h>

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

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, UserLimits,
                         ::testing::Values(Algorithm::kFcfs, Algorithm::kEasy,
                                           Algorithm::kCbf),
                         [](const ::testing::TestParamInfo<Algorithm>&
                                param_info) {
                           return algorithm_name(param_info.param);
                         });

}  // namespace
}  // namespace rrsim::sched

// A job lives only in its scheduler's queue or running set, so the moment
// it ends (cancelled, declined or finished) no scheduler structure holds
// it, and per-job state stays O(live jobs). The documented behavioural
// edges: cancel() on an ended id says false like any unknown id, and
// reusing the id is no longer caught as a duplicate.
#include <gtest/gtest.h>

#include "rrsim/sched/factory.h"

namespace rrsim::sched {
namespace {

Job make_job(JobId id, int nodes, double runtime) {
  Job job;
  job.id = id;
  job.nodes = nodes;
  job.actual_time = runtime;
  job.requested_time = runtime * 2.0;
  return job;
}

TEST(ForgetTerminalIds, ForgottenIdsAnswerLikeTerminalOnes) {
  des::Simulation sim;
  auto sched = make_scheduler(Algorithm::kFcfs, sim, 8);
  sim.schedule_at(1.0, [&] { sched->submit(make_job(1, 8, 10.0)); },
                  des::Priority::kArrival);
  sim.run();
  EXPECT_EQ(sched->counters().finishes, 1U);
  // Finished and forgotten: cancel answers false through the unknown-id
  // path.
  EXPECT_FALSE(sched->cancel(1));
  // The documented trade: a reused ended id is accepted again instead of
  // throwing. The gateway never reuses replica ids.
  EXPECT_NO_THROW(sched->submit(make_job(1, 8, 10.0)));
}

}  // namespace
}  // namespace rrsim::sched

// RRSIM_VALIDATE coverage for the PDES layer: a full multi-window
// redundant run with every invariant armed must stay silent (including
// the cross-partition tracking sweep), and the planted mailbox corruption —
// a message warped into its destination's past, exactly the class of bug
// the conservative contract exists to prevent — must abort.
#include <gtest/gtest.h>

#include "rrsim/exec/pdes.h"
#include "rrsim/grid/gateway.h"
#include "rrsim/grid/platform.h"

namespace rrsim {
namespace {

static_assert(RRSIM_VALIDATE_ENABLED,
              "validate_tests must be compiled with RRSIM_VALIDATE=1");

grid::GridJob make_pdes_job(grid::GridJobId id, std::size_t origin,
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

TEST(ValidateClean, PdesRedundantRunWithValidatorsArmed) {
  constexpr std::size_t kN = 3;
  constexpr double kLatency = 5.0;
  exec::PdesCoordinator coord(kN, kLatency, 2);
  grid::Platform platform(coord, std::vector<int>(kN, 8),
                          sched::Algorithm::kCbf);
  grid::Gateway gateway(platform);
  // Staggered redundant submissions from every origin: enough traffic to
  // queue, start, cancel in-flight siblings, and produce duplicate
  // starts — every mailbox/horizon/tracking validator fires repeatedly.
  for (grid::GridJobId id = 1; id <= 12; ++id) {
    const std::size_t origin = id % kN;
    coord.partition(origin).schedule_at(
        static_cast<double>(id) * 2.0, [&gateway, id, origin] {
          gateway.submit(make_pdes_job(id, origin, {0, 1, 2}, 4,
                                       30.0 + static_cast<double>(id)));
        });
  }
  coord.run();
  gateway.debug_validate();
  EXPECT_EQ(gateway.submitted(), 12u);
  EXPECT_EQ(gateway.finished(), 12u);
  EXPECT_GT(coord.messages_delivered(), 0u);
}

// --- planted corruption: the oracle must catch the bug ---------------------

using ValidateDeath = ::testing::Test;

TEST(ValidateDeath, CorruptedMailboxDeliveryAborts) {
  // Single worker so the death-test child stays single-threaded.
  exec::PdesCoordinator coord(2, 5.0, 1);
  coord.partition(0).schedule_at(0.0, [&coord] {
    coord.post(0, 1, 5.0, des::Priority::kArrival, [] {});
  });
  coord.debug_corrupt_next_delivery();
  EXPECT_DEATH(coord.run(), "destination's past");
}

}  // namespace
}  // namespace rrsim

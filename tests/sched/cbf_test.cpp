#include "rrsim/sched/cbf.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace rrsim::sched {
namespace {

Job make_job(JobId id, int nodes, Time requested, Time actual = -1.0) {
  Job j;
  j.id = id;
  j.nodes = nodes;
  j.requested_time = requested;
  j.actual_time = actual < 0.0 ? requested : actual;
  return j;
}

struct Recorder {
  std::map<JobId, Time> start_times;
  std::map<JobId, Time> predicted;  ///< submit-time reservations

  ClusterScheduler::Callbacks callbacks(des::Simulation& sim) {
    ClusterScheduler::Callbacks cb;
    cb.on_start = [this, &sim](const Job& j) { start_times[j.id] = sim.now(); };
    cb.on_prediction = [this](const Job& j, Time s) { predicted[j.id] = s; };
    return cb;
  }
};

TEST(Cbf, ImmediateStartWhenFree) {
  des::Simulation sim;
  CbfScheduler sched(sim, 8);
  Recorder rec;
  sched.set_callbacks(rec.callbacks(sim));
  sched.submit(make_job(1, 8, 10.0));
  EXPECT_EQ(rec.start_times[1], 0.0);
  EXPECT_EQ(sched.queue_length(), 0u);
}

TEST(Cbf, EveryJobGetsReservationAtSubmit) {
  des::Simulation sim;
  CbfScheduler sched(sim, 8);
  Recorder rec;
  sched.set_callbacks(rec.callbacks(sim));
  sched.submit(make_job(1, 8, 100.0));
  sched.submit(make_job(2, 8, 50.0));
  sched.submit(make_job(3, 8, 25.0));
  EXPECT_EQ(rec.predicted.at(1), 0.0);
  EXPECT_EQ(rec.predicted.at(2), 100.0);
  EXPECT_EQ(rec.predicted.at(3), 150.0);
  EXPECT_EQ(sched.current_reservation(2), 100.0);
  EXPECT_FALSE(sched.current_reservation(1).has_value());  // running
}

TEST(Cbf, BackfillsIntoProfileHoles) {
  des::Simulation sim;
  CbfScheduler sched(sim, 8);
  Recorder rec;
  sched.set_callbacks(rec.callbacks(sim));
  sched.submit(make_job(1, 6, 100.0));  // running; 2 free
  sched.submit(make_job(2, 8, 50.0));   // reserved at 100
  sched.submit(make_job(3, 2, 120.0));  // would overlap job 2's slot:
                                        // must wait until 150
  sched.submit(make_job(4, 2, 100.0));  // fits exactly in the [0,100) hole
  sim.run_until(0.0);
  EXPECT_EQ(rec.start_times.count(3), 0u);
  EXPECT_EQ(*sched.current_reservation(3), 150.0);
  EXPECT_EQ(rec.start_times[4], 0.0);
  // Job 3's reservation must not delay job 2.
  EXPECT_EQ(rec.predicted.at(2), 100.0);
  EXPECT_EQ(*sched.current_reservation(2), 100.0);
  sim.run();
  EXPECT_EQ(rec.start_times[2], 100.0);
}

TEST(Cbf, ReservationsNeverDelayedByLaterSubmissions_Property) {
  des::Simulation sim;
  CbfScheduler sched(sim, 16);
  Recorder rec;
  sched.set_callbacks(rec.callbacks(sim));
  const std::map<JobId, Time>& reserved = rec.predicted;
  JobId id = 1;
  for (int i = 0; i < 40; ++i) {
    const int nodes = (static_cast<int>(id) * 5 % 16) + 1;
    const double req = 10.0 + static_cast<double>(id % 30);
    sched.submit(make_job(id, nodes, req));
    ASSERT_EQ(reserved.count(id), 1u) << "job " << id << " not predicted";
    // Invariant: every earlier job's current reservation is still at or
    // before the value promised at its submission.
    for (const auto& [jid, promise] : reserved) {
      const auto current = sched.current_reservation(jid);
      if (current) {
        ASSERT_LE(*current, promise) << "job " << jid << " pushed back";
      }
    }
    ++id;
  }
}

TEST(Cbf, StartsHappenAtReservations) {
  des::Simulation sim;
  CbfScheduler sched(sim, 8);
  Recorder rec;
  sched.set_callbacks(rec.callbacks(sim));
  sched.submit(make_job(1, 8, 100.0));
  sched.submit(make_job(2, 4, 50.0));
  sched.submit(make_job(3, 4, 80.0));
  sim.run();
  EXPECT_EQ(rec.start_times[1], 0.0);
  EXPECT_EQ(rec.start_times[2], 100.0);
  EXPECT_EQ(rec.start_times[3], 100.0);  // runs beside job 2
}

TEST(Cbf, CompressionAfterEarlyCompletion) {
  des::Simulation sim;
  CbfScheduler sched(sim, 8);
  Recorder rec;
  sched.set_callbacks(rec.callbacks(sim));
  sched.submit(make_job(1, 8, 100.0, 20.0));  // claims 100, runs 20
  sched.submit(make_job(2, 8, 50.0));         // reserved at 100
  EXPECT_EQ(rec.predicted.at(2), 100.0);
  sim.run();
  EXPECT_EQ(rec.start_times[2], 20.0);  // compression pulled it forward
}

TEST(Cbf, CancellationCompressesQueue) {
  des::Simulation sim;
  CbfScheduler sched(sim, 8);
  Recorder rec;
  sched.set_callbacks(rec.callbacks(sim));
  sched.submit(make_job(1, 8, 100.0));
  sched.submit(make_job(2, 8, 50.0));   // reserved at 100
  sched.submit(make_job(3, 8, 25.0));   // reserved at 150
  EXPECT_TRUE(sched.cancel(2));
  EXPECT_EQ(*sched.current_reservation(3), 100.0);
  sim.run();
  EXPECT_EQ(rec.start_times[3], 100.0);
}

TEST(Cbf, CancelRunningFails) {
  des::Simulation sim;
  CbfScheduler sched(sim, 8);
  sched.submit(make_job(1, 8, 100.0));
  EXPECT_FALSE(sched.cancel(1));
}

TEST(Cbf, DeclineReleasesReservation) {
  des::Simulation sim;
  CbfScheduler sched(sim, 8);
  ClusterScheduler::Callbacks cb;
  std::map<JobId, Time> started;
  cb.on_grant = [](const Job& j) { return j.id != 2; };
  cb.on_start = [&started, &sim](const Job& j) { started[j.id] = sim.now(); };
  sched.set_callbacks(std::move(cb));
  sched.submit(make_job(1, 8, 100.0));
  sched.submit(make_job(2, 8, 50.0));
  sched.submit(make_job(3, 8, 25.0));
  sim.run();
  EXPECT_EQ(started.count(2), 0u);
  EXPECT_EQ(started[3], 100.0);  // slot vacated by the declined job
}

TEST(Cbf, FifoAmongEqualJobs) {
  // With identical jobs, CBF reduces to FCFS: reservations are in
  // submission order.
  des::Simulation sim;
  CbfScheduler sched(sim, 4);
  Recorder rec;
  sched.set_callbacks(rec.callbacks(sim));
  for (JobId id = 1; id <= 6; ++id) {
    sched.submit(make_job(id, 4, 10.0));
  }
  Time prev = -1.0;
  for (JobId id = 2; id <= 6; ++id) {
    const Time r = rec.predicted.at(id);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

TEST(Cbf, PredictionExactWithExactEstimatesAndNoChurn_Property) {
  // With exact runtime estimates and no cancellations, CBF predictions
  // are exact: every job starts precisely when its reservation said.
  des::Simulation sim;
  CbfScheduler sched(sim, 16);
  std::map<JobId, Time> predicted;
  std::map<JobId, Time> actual;
  ClusterScheduler::Callbacks cb;
  cb.on_start = [&actual, &sim](const Job& j) { actual[j.id] = sim.now(); };
  cb.on_prediction = [&predicted](const Job& j, Time s) {
    predicted[j.id] = s;
  };
  sched.set_callbacks(std::move(cb));
  JobId id = 1;
  for (int i = 0; i < 50; ++i) {
    const int nodes = (static_cast<int>(id) * 3 % 16) + 1;
    const double req = 5.0 + static_cast<double>((id * 11) % 50);
    sched.submit(make_job(id, nodes, req));
    ++id;
  }
  sim.run();
  ASSERT_EQ(actual.size(), predicted.size());
  for (const auto& [jid, p] : predicted) {
    ASSERT_DOUBLE_EQ(actual[jid], p) << "job " << jid;
  }
}

TEST(Cbf, OverestimatedRuntimesMakePredictionsConservative) {
  des::Simulation sim;
  CbfScheduler sched(sim, 8);
  Recorder rec;
  sched.set_callbacks(rec.callbacks(sim));
  // Requested 100 but actually run 25 each: predictions stack at 100,
  // 200, ..., actual starts at 25, 50, ...
  for (JobId id = 1; id <= 4; ++id) {
    sched.submit(make_job(id, 8, 100.0, 25.0));
  }
  const Time predicted4 = rec.predicted.at(4);
  sim.run();
  EXPECT_EQ(predicted4, 300.0);
  EXPECT_EQ(rec.start_times[4], 75.0);
  // Over-prediction factor 4 — the Section 5 effect in miniature.
}

TEST(Cbf, QueueDrainsCompletely) {
  des::Simulation sim;
  CbfScheduler sched(sim, 8);
  JobId id = 1;
  for (int i = 0; i < 30; ++i) {
    sched.submit(make_job(id, (static_cast<int>(id) % 8) + 1,
                          1.0 + static_cast<double>(id % 17)));
    ++id;
  }
  sim.run();
  EXPECT_EQ(sched.queue_length(), 0u);
  EXPECT_EQ(sched.running_count(), 0u);
  EXPECT_EQ(sched.counters().finishes, 30u);
  EXPECT_EQ(sched.free_nodes(), 8);
}

}  // namespace
}  // namespace rrsim::sched

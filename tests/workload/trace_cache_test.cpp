// TraceCache contract: one generation per distinct key, shared snapshots
// on hits, generate-every-time when disabled, bitwise key sensitivity,
// checkpoint-table, draw-segment and calibration entries alongside
// streams, and least-recently-used eviction under a byte budget (hits
// refresh recency).
#include "rrsim/workload/trace_cache.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rrsim::workload {
namespace {

TraceKey key_with(std::uint64_t stream_state, double mean_factor = 1.0) {
  TraceKey k;
  k.max_nodes = 128;
  k.horizon = 3600.0;
  k.stream_rng = {stream_state, 1442695040888963407ULL};
  k.est_rng = {7, 11};
  k.estimator_name = "exact";
  k.estimator_mean_factor = mean_factor;
  return k;
}

JobStream make_stream(int jobs) {
  JobStream s;
  for (int i = 0; i < jobs; ++i) {
    JobSpec spec;
    spec.submit_time = static_cast<double>(i);
    s.push_back(spec);
  }
  return s;
}

TEST(TraceCache, GeneratesOncePerKeyAndSharesTheSnapshot) {
  TraceCache cache;
  int generations = 0;
  const auto gen = [&generations] {
    ++generations;
    return make_stream(3);
  };
  const auto a = cache.get_or_generate(key_with(1), gen);
  const auto b = cache.get_or_generate(key_with(1), gen);
  EXPECT_EQ(generations, 1);
  EXPECT_EQ(a.get(), b.get());  // same buffer, not an equal copy
  EXPECT_EQ(a->size(), 3u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.resident_bytes(), 3 * sizeof(JobSpec));
}

TEST(TraceCache, DisabledModeGeneratesEveryTimeAndPublishesNothing) {
  TraceCache cache;
  cache.set_enabled(false);
  EXPECT_FALSE(cache.enabled());
  int generations = 0;
  const auto gen = [&generations] {
    ++generations;
    return make_stream(1);
  };
  const auto a = cache.get_or_generate(key_with(1), gen);
  const auto b = cache.get_or_generate(key_with(1), gen);
  EXPECT_EQ(generations, 2);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);  // counts what memoization would absorb

  cache.set_enabled(true);
  cache.get_or_generate(key_with(1), gen);
  EXPECT_EQ(generations, 3);  // nothing was published while disabled
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(TraceCache, KeysAreBitwiseSensitive) {
  TraceCache cache;
  int generations = 0;
  const auto gen = [&generations] {
    ++generations;
    return make_stream(1);
  };
  cache.get_or_generate(key_with(1), gen);
  // A different Rng fingerprint is a different trace.
  cache.get_or_generate(key_with(2), gen);
  // Same estimator name, different mean factor (UniformFactorEstimator's
  // name does not encode its parameter) — must not collide.
  cache.get_or_generate(key_with(1, 2.16), gen);
  EXPECT_EQ(generations, 3);
  EXPECT_EQ(cache.entries(), 3u);
  // And the originals still hit.
  cache.get_or_generate(key_with(1), gen);
  cache.get_or_generate(key_with(1, 2.16), gen);
  EXPECT_EQ(generations, 3);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(TraceCache, ClearDropsEntriesAndZeroesCounters) {
  TraceCache cache;
  cache.get_or_generate(key_with(1), [] { return make_stream(2); });
  cache.get_or_generate(key_with(1), [] { return make_stream(2); });
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  int generations = 0;
  cache.get_or_generate(key_with(1), [&generations] {
    ++generations;
    return make_stream(2);
  });
  EXPECT_EQ(generations, 1);  // the cleared entry is really gone
}

TEST(TraceCache, ByteBudgetEvictsOldestFirst) {
  TraceCache cache;
  cache.set_byte_budget(2 * sizeof(JobSpec));
  int generations = 0;
  const auto gen = [&generations] {
    ++generations;
    return make_stream(1);
  };
  cache.get_or_generate(key_with(1), gen);
  cache.get_or_generate(key_with(2), gen);
  EXPECT_EQ(cache.entries(), 2u);
  cache.get_or_generate(key_with(3), gen);  // evicts key 1 (oldest)
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.resident_bytes(), 2 * sizeof(JobSpec));
  cache.get_or_generate(key_with(3), gen);  // newest still resident
  cache.get_or_generate(key_with(2), gen);
  EXPECT_EQ(generations, 3);
  cache.get_or_generate(key_with(1), gen);  // evicted: regenerates
  EXPECT_EQ(generations, 4);
}

TEST(TraceCache, HitsRefreshRecencySoEvictionIsGenuinelyLru) {
  TraceCache cache;
  cache.set_byte_budget(2 * sizeof(JobSpec));
  int generations = 0;
  const auto gen = [&generations] {
    ++generations;
    return make_stream(1);
  };
  cache.get_or_generate(key_with(1), gen);
  cache.get_or_generate(key_with(2), gen);
  cache.get_or_generate(key_with(1), gen);  // hit: key 1 is now the newest
  cache.get_or_generate(key_with(3), gen);  // evicts key 2, not key 1
  EXPECT_EQ(generations, 3);
  cache.get_or_generate(key_with(1), gen);  // still resident
  EXPECT_EQ(generations, 3);
  cache.get_or_generate(key_with(2), gen);  // the real victim: regenerates
  EXPECT_EQ(generations, 4);
}

TEST(TraceCache, CheckpointTablesAreCachedPerKeyAndWindow) {
  TraceCache cache;
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    CheckpointedTrace t;
    t.window = 8;
    t.total_jobs = 20;
    t.checkpoints.resize(3);
    return t;
  };
  const auto a = cache.get_or_build_checkpoints(key_with(1), 8, build);
  const auto b = cache.get_or_build_checkpoints(key_with(1), 8, build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(a.get(), b.get());  // shared snapshot, not an equal copy
  EXPECT_EQ(cache.checkpoint_hits(), 1u);
  EXPECT_EQ(cache.checkpoint_misses(), 1u);
  // Stream counters are untouched by checkpoint traffic and vice versa.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  // A different window of the same trace is a different table.
  cache.get_or_build_checkpoints(key_with(1), 16, build);
  EXPECT_EQ(builds, 2);
  // And a checkpoint entry never collides with the stream entry for the
  // same trace key.
  int generations = 0;
  cache.get_or_generate(key_with(1), [&generations] {
    ++generations;
    return make_stream(1);
  });
  EXPECT_EQ(generations, 1);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_THROW(cache.get_or_build_checkpoints(key_with(1), 0, build),
               std::invalid_argument);
}

TEST(TraceCache, DisabledModeCountsCheckpointMissesWithoutPublishing) {
  TraceCache cache;
  cache.set_enabled(false);
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    return CheckpointedTrace{};
  };
  cache.get_or_build_checkpoints(key_with(1), 8, build);
  cache.get_or_build_checkpoints(key_with(1), 8, build);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.checkpoint_misses(), 2u);
  EXPECT_EQ(cache.checkpoint_hits(), 0u);
}

TEST(TraceCache, ByteBudgetEvictsAcrossEntryKinds) {
  TraceCache cache;
  // Room for one 2-job stream plus a little; a checkpoint table then
  // pushes the older stream out.
  cache.set_byte_budget(2 * sizeof(JobSpec) +
                        2 * sizeof(StreamCheckpoint));
  int generations = 0;
  const auto gen = [&generations] {
    ++generations;
    return make_stream(2);
  };
  cache.get_or_generate(key_with(1), gen);
  const auto build = [] {
    CheckpointedTrace t;
    t.window = 4;
    t.checkpoints.resize(2);
    t.checkpoints.shrink_to_fit();
    return t;
  };
  cache.get_or_build_checkpoints(key_with(2), 4, build);
  cache.get_or_generate(key_with(3), gen);  // evicts until under budget
  EXPECT_LE(cache.resident_bytes(),
            2 * sizeof(JobSpec) + 2 * sizeof(StreamCheckpoint));
  // The oldest entry (stream 1) is gone; the newest (stream 3) survived.
  cache.get_or_generate(key_with(3), gen);
  EXPECT_EQ(generations, 2);
  cache.get_or_generate(key_with(1), gen);
  EXPECT_EQ(generations, 3);
}

TEST(TraceCache, ClearZeroesCheckpointCounters) {
  TraceCache cache;
  cache.get_or_build_checkpoints(key_with(1), 8,
                                 [] { return CheckpointedTrace{}; });
  cache.get_or_build_checkpoints(key_with(1), 8,
                                 [] { return CheckpointedTrace{}; });
  cache.clear();
  EXPECT_EQ(cache.checkpoint_hits(), 0u);
  EXPECT_EQ(cache.checkpoint_misses(), 0u);
  EXPECT_EQ(cache.entries(), 0u);
}

DrawSegmentKey draw_key_with(std::uint64_t users_state,
                             std::uint64_t count = 100) {
  DrawSegmentKey k;
  k.users_start = {users_state, 3};
  k.redundancy_start = {5, 7};
  k.count = count;
  k.users_per_cluster = 8;
  k.scheme_active = true;
  return k;
}

TEST(TraceCache, DrawSegmentsAreMemoizedPerKey) {
  TraceCache cache;
  int advances = 0;
  const auto advance = [&advances] {
    ++advances;
    DrawSegment s;
    s.users_end = {11, 3};
    s.redundancy_end = {13, 7};
    return s;
  };
  const DrawSegment a = cache.get_or_advance_draws(draw_key_with(1), advance);
  const DrawSegment b = cache.get_or_advance_draws(draw_key_with(1), advance);
  EXPECT_EQ(advances, 1);
  EXPECT_EQ(a.users_end, b.users_end);
  EXPECT_EQ(a.redundancy_end, b.redundancy_end);
  EXPECT_EQ(b.users_end, (std::pair<std::uint64_t, std::uint64_t>{11, 3}));
  EXPECT_EQ(cache.draw_hits(), 1u);
  EXPECT_EQ(cache.draw_misses(), 1u);
  // Draw traffic touches neither the stream nor the checkpoint counters.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.checkpoint_hits(), 0u);
  // Every key field is significant: a different start state, count,
  // user-count, or scheme activeness is a different segment.
  cache.get_or_advance_draws(draw_key_with(2), advance);
  cache.get_or_advance_draws(draw_key_with(1, 101), advance);
  DrawSegmentKey inactive = draw_key_with(1);
  inactive.scheme_active = false;
  cache.get_or_advance_draws(inactive, advance);
  DrawSegmentKey more_users = draw_key_with(1);
  more_users.users_per_cluster = 9;
  cache.get_or_advance_draws(more_users, advance);
  EXPECT_EQ(advances, 5);
  EXPECT_EQ(cache.entries(), 5u);

  cache.clear();
  EXPECT_EQ(cache.draw_hits(), 0u);
  EXPECT_EQ(cache.draw_misses(), 0u);
}

TEST(TraceCache, DisabledModeAdvancesDrawsEveryTimeWithoutPublishing) {
  TraceCache cache;
  cache.set_enabled(false);
  int advances = 0;
  const auto advance = [&advances] {
    ++advances;
    return DrawSegment{};
  };
  cache.get_or_advance_draws(draw_key_with(1), advance);
  cache.get_or_advance_draws(draw_key_with(1), advance);
  EXPECT_EQ(advances, 2);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.draw_misses(), 2u);
  EXPECT_EQ(cache.draw_hits(), 0u);
}

CalibrationKey calibration_key() {
  CalibrationKey k;
  k.max_nodes = 128;
  k.target_utilization = 0.7;
  k.samples = 20000;
  k.rng_start = {17, 19};
  return k;
}

double flip_low_bit(double v) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^ 1);
}

TEST(TraceCache, CalibrationsAreMemoizedPerKey) {
  TraceCache cache;
  int runs = 0;
  const auto calibrate = [&runs] {
    ++runs;
    Calibration c;
    c.mean_interarrival = 42.5;
    c.rng_end = {23, 19};
    return c;
  };
  const Calibration a = cache.get_or_calibrate(calibration_key(), calibrate);
  const Calibration b = cache.get_or_calibrate(calibration_key(), calibrate);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(b.mean_interarrival, 42.5);
  EXPECT_EQ(b.rng_end, a.rng_end);
  EXPECT_EQ(b.rng_end, (std::pair<std::uint64_t, std::uint64_t>{23, 19}));
  EXPECT_EQ(cache.calibration_hits(), 1u);
  EXPECT_EQ(cache.calibration_misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.resident_bytes(), sizeof(Calibration));
  // Calibration traffic touches no other kind's counters.
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
  EXPECT_EQ(cache.checkpoint_hits() + cache.checkpoint_misses(), 0u);
  EXPECT_EQ(cache.draw_hits() + cache.draw_misses(), 0u);
  EXPECT_EQ(cache.spool_hits() + cache.spool_misses(), 0u);

  cache.clear();
  EXPECT_EQ(cache.calibration_hits(), 0u);
  EXPECT_EQ(cache.calibration_misses(), 0u);
  EXPECT_EQ(cache.entries(), 0u);
  cache.get_or_calibrate(calibration_key(), calibrate);
  EXPECT_EQ(runs, 2);  // the cleared entry is really gone
}

TEST(TraceCache, EveryCalibrationKeyBitIsSignificant) {
  // One bit of any key field — each model parameter, the node count, the
  // target, the sample count, either half of the start fingerprint — is
  // a different calibration.
  std::vector<CalibrationKey> keys;
  for (double LublinParams::*field :
       {&LublinParams::arrival_alpha, &LublinParams::arrival_beta,
        &LublinParams::serial_prob, &LublinParams::pow2_prob,
        &LublinParams::ulow, &LublinParams::uprob,
        &LublinParams::umed_offset, &LublinParams::rt_a1,
        &LublinParams::rt_b1, &LublinParams::rt_a2, &LublinParams::rt_b2,
        &LublinParams::rt_pa, &LublinParams::rt_pb,
        &LublinParams::rt_log_base, &LublinParams::min_runtime,
        &LublinParams::max_runtime}) {
    CalibrationKey k = calibration_key();
    k.params.*field = flip_low_bit(k.params.*field);
    keys.push_back(k);
  }
  keys.push_back(calibration_key());
  keys.back().max_nodes ^= 1;
  keys.push_back(calibration_key());
  keys.back().target_utilization =
      flip_low_bit(keys.back().target_utilization);
  keys.push_back(calibration_key());
  keys.back().samples ^= 1;
  keys.push_back(calibration_key());
  keys.back().rng_start.first ^= 1;
  keys.push_back(calibration_key());
  keys.back().rng_start.second ^= 1;

  TraceCache cache;
  int runs = 0;
  const auto calibrate = [&runs] {
    ++runs;
    return Calibration{};
  };
  cache.get_or_calibrate(calibration_key(), calibrate);
  for (const CalibrationKey& k : keys) cache.get_or_calibrate(k, calibrate);
  EXPECT_EQ(runs, static_cast<int>(keys.size()) + 1);
  EXPECT_EQ(cache.calibration_hits(), 0u);
  EXPECT_EQ(cache.entries(), keys.size() + 1);
  // And the original still hits.
  cache.get_or_calibrate(calibration_key(), calibrate);
  EXPECT_EQ(cache.calibration_hits(), 1u);
}

TEST(TraceCache, DisabledModeCalibratesEveryTimeWithoutPublishing) {
  TraceCache cache;
  cache.set_enabled(false);
  int runs = 0;
  const auto calibrate = [&runs] {
    ++runs;
    return Calibration{};
  };
  cache.get_or_calibrate(calibration_key(), calibrate);
  cache.get_or_calibrate(calibration_key(), calibrate);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.calibration_misses(), 2u);
  EXPECT_EQ(cache.calibration_hits(), 0u);
}

TEST(TraceCache, ByteBudgetEvictsTheLeastRecentCalibration) {
  TraceCache cache;
  cache.set_byte_budget(2 * sizeof(Calibration));
  int runs = 0;
  const auto calibrate = [&runs] {
    ++runs;
    return Calibration{};
  };
  const auto key = [](std::uint64_t start) {
    CalibrationKey k = calibration_key();
    k.rng_start.first = start;
    return k;
  };
  cache.get_or_calibrate(key(1), calibrate);
  cache.get_or_calibrate(key(2), calibrate);
  cache.get_or_calibrate(key(1), calibrate);  // hit: key 1 is the newest
  cache.get_or_calibrate(key(3), calibrate);  // evicts key 2
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.resident_bytes(), 2 * sizeof(Calibration));
  cache.get_or_calibrate(key(1), calibrate);
  cache.get_or_calibrate(key(3), calibrate);
  EXPECT_EQ(runs, 3);
  cache.get_or_calibrate(key(2), calibrate);  // the victim: recalibrates
  EXPECT_EQ(runs, 4);
}

TEST(TraceCache, FreshEntryLargerThanBudgetIsEvictedYetStillReturned) {
  // Regression: with a budget smaller than a single payload, insertion
  // evicts the just-inserted entry itself. The returned snapshot must be
  // the caller-held payload, not a reference into the erased map node
  // (which was a use-after-free).
  TraceCache cache;
  cache.set_byte_budget(1);
  const auto held =
      cache.get_or_generate(key_with(1), [] { return make_stream(4); });
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->size(), 4u);
  EXPECT_EQ(cache.entries(), 0u);  // the fresh entry itself was evicted
  EXPECT_EQ(cache.resident_bytes(), 0u);
  const auto table = cache.get_or_build_checkpoints(key_with(2), 8, [] {
    CheckpointedTrace t;
    t.window = 8;
    t.total_jobs = 20;
    t.checkpoints.resize(3);
    return t;
  });
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->total_jobs, 20u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(TraceCache, LiveConsumersSurviveEviction) {
  TraceCache cache;
  cache.set_byte_budget(sizeof(JobSpec));
  const auto held =
      cache.get_or_generate(key_with(1), [] { return make_stream(1); });
  cache.get_or_generate(key_with(2), [] { return make_stream(1); });
  EXPECT_EQ(cache.entries(), 1u);  // key 1 evicted...
  EXPECT_EQ(held->size(), 1u);     // ...but the held snapshot stays valid
}

}  // namespace
}  // namespace rrsim::workload

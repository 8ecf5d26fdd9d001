// Tie-break schedule explorer tests: DPOR-lite canonicalization, seeded
// determinism of the exploration itself, witness minimization, and the
// planted-bug contract — a schedule that *is* tie-sensitive must be
// caught (and the matching static pattern must be caught by the lint
// rule; see lint_self_test.cpp for that half).
#include "explore.h"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rrsim/des/simulation.h"
#include "ties_trace.h"

namespace rrsim::check {
namespace {

/// Minimal probe: `cohorts` groups of `size` same-(time, priority)
/// events, each event tagged with its own cluster id. The outcome digest
/// is either order-sensitive (sequential FNV over the firing order — any
/// permutation diverges) or commutative (no permutation can diverge).
/// `headline_drift` controls whether an order-sensitive divergence also
/// moves the headline metrics or stays a pure checksum divergence.
class ToyProbe final : public ScheduleProbe {
 public:
  ToyProbe(bool order_sensitive, std::size_t cohorts, std::size_t size,
           bool attach_probe = false, std::uint64_t coupling = 0,
           bool headline_drift = true)
      : order_sensitive_(order_sensitive),
        cohorts_(cohorts),
        size_(size),
        attach_probe_(attach_probe),
        coupling_(coupling),
        headline_drift_(headline_drift) {}

  RunOutcome run(des::TieBreakPolicy& policy) override {
    if (attach_probe_) {
      const std::uint64_t coupling = coupling_;
      policy.attach_coupling_probe(0, [coupling] { return coupling; });
    }
    des::Simulation sim;
    sim.set_tie_break_policy(&policy, 0);
    std::vector<std::uint32_t> fired;
    for (std::size_t g = 0; g < cohorts_; ++g) {
      const des::Time t = 10.0 * static_cast<double>(g + 1);
      for (std::size_t j = 0; j < size_; ++j) {
        const std::uint32_t label =
            static_cast<std::uint32_t>(g * 100 + j);
        sim.schedule_at(
            t, [&fired, label] { fired.push_back(label); },
            des::Priority::kControl, /*tag=*/static_cast<std::uint32_t>(j));
      }
    }
    sim.run();
    RunOutcome out;
    out.jobs = fired.size();
    if (order_sensitive_) {
      std::uint64_t h = 1469598103934665603ull;
      for (const std::uint32_t v : fired) {
        h ^= v;
        h *= 1099511628211ull;
      }
      out.outcome_hash = h;
      if (headline_drift_) {
        out.mean_stretch =
            1.0 + static_cast<double>(h % 1024) / 1024.0;
        out.p99_stretch = out.mean_stretch;
      }
    } else {
      std::uint64_t s = 0;
      for (const std::uint32_t v : fired) s += v * 2654435761ull;
      out.outcome_hash = s;
    }
    return out;
  }

 private:
  bool order_sensitive_;
  std::size_t cohorts_;
  std::size_t size_;
  bool attach_probe_;
  std::uint64_t coupling_;
  bool headline_drift_;
};

TieGroupRecord make_group(std::vector<std::uint32_t> tags,
                          std::uint64_t coupling) {
  TieGroupRecord g;
  g.id = 7;
  g.coupling = coupling;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    g.members.push_back({/*seq=*/100 + i, tags[i]});
  }
  return g;
}

TEST(CanonicalRanks, IndependentSwapsBubbleToIdentity) {
  const TieGroupRecord g = make_group({0, 1, 2}, /*coupling=*/0);
  EXPECT_EQ(canonical_ranks(g, {1, 0, 2}),
            (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(canonical_ranks(g, {2, 1, 0}),
            (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(CanonicalRanks, CouplingDisablesPruning) {
  const TieGroupRecord g = make_group({0, 1, 2}, /*coupling=*/3);
  EXPECT_EQ(canonical_ranks(g, {1, 0, 2}),
            (std::vector<std::uint32_t>{1, 0, 2}));
}

TEST(CanonicalRanks, UnknownCouplingDisablesPruning) {
  const TieGroupRecord g = make_group({0, 1, 2}, kCouplingUnknown);
  EXPECT_EQ(canonical_ranks(g, {2, 1, 0}),
            (std::vector<std::uint32_t>{2, 1, 0}));
}

TEST(CanonicalRanks, SameTagOrUntaggedEventsAreDependent) {
  const TieGroupRecord same = make_group({4, 4, 4}, 0);
  EXPECT_EQ(canonical_ranks(same, {1, 0, 2}),
            (std::vector<std::uint32_t>{1, 0, 2}));
  const TieGroupRecord untagged =
      make_group({des::kNoEventTag, des::kNoEventTag}, 0);
  EXPECT_EQ(canonical_ranks(untagged, {1, 0}),
            (std::vector<std::uint32_t>{1, 0}));
}

TEST(Explore, OrderInsensitiveOutcomeIsIdentical) {
  ToyProbe probe(/*order_sensitive=*/false, /*cohorts=*/3, /*size=*/3);
  ExploreOptions opts;
  opts.exhaustive_k = 3;
  const ExploreReport report = explore(probe, opts);
  EXPECT_EQ(report.groups_total, 3u);
  EXPECT_EQ(report.groups_explored, 3u);
  EXPECT_GT(report.schedules_explored, 0u);
  EXPECT_EQ(report.divergence_count, 0u);
  EXPECT_EQ(report.replay_mismatches, 0u);
  EXPECT_TRUE(report.identical);
  EXPECT_TRUE(report.within_tolerance);
  EXPECT_EQ(report.baseline.jobs, 9u);
}

TEST(Explore, PlantedOrderSensitivityIsCaught) {
  ToyProbe probe(/*order_sensitive=*/true, /*cohorts=*/2, /*size=*/3);
  ExploreOptions opts;
  opts.exhaustive_k = 3;
  const ExploreReport report = explore(probe, opts);
  EXPECT_FALSE(report.identical);
  EXPECT_FALSE(report.within_tolerance);
  EXPECT_GT(report.divergence_count, 0u);
  ASSERT_FALSE(report.divergences.empty());
  // Every alternative schedule of an order-sensitive outcome diverges:
  // both cohorts must be caught, 3! - 1 = 5 divergences each.
  EXPECT_EQ(report.divergence_count, 10u);
}

TEST(Explore, WitnessIsMinimizedToAdjacentTransposition) {
  ToyProbe probe(/*order_sensitive=*/true, /*cohorts=*/1, /*size=*/4);
  ExploreOptions opts;
  opts.exhaustive_k = 4;
  const ExploreReport report = explore(probe, opts);
  ASSERT_FALSE(report.divergences.empty());
  bool minimized = false;
  for (const Divergence& d : report.divergences) {
    if (!d.witness_is_transposition) continue;
    minimized = true;
    ASSERT_EQ(d.witness.size(), d.group_size);
    // A transposition differs from identity in exactly one adjacent pair.
    std::size_t displaced = 0;
    for (std::size_t i = 0; i < d.witness.size(); ++i) {
      if (d.witness[i] != i) ++displaced;
    }
    EXPECT_EQ(displaced, 2u);
  }
  EXPECT_TRUE(minimized);
  EXPECT_GT(report.witness_replays, 0u);
}

TEST(Explore, SameSeedSameScheduleSet) {
  // Cohort size above exhaustive_k forces the seeded sampling path.
  ExploreOptions opts;
  opts.exhaustive_k = 3;
  opts.samples_above_k = 6;
  opts.seed = 42;
  ToyProbe a(/*order_sensitive=*/true, /*cohorts=*/2, /*size=*/5);
  ToyProbe b(/*order_sensitive=*/true, /*cohorts=*/2, /*size=*/5);
  const ExploreReport ra = explore(a, opts);
  const ExploreReport rb = explore(b, opts);
  EXPECT_EQ(ra.schedules_explored, rb.schedules_explored);
  EXPECT_EQ(ra.schedules_pruned, rb.schedules_pruned);
  EXPECT_EQ(ra.divergence_count, rb.divergence_count);
  EXPECT_EQ(ra.baseline.outcome_hash, rb.baseline.outcome_hash);
  ASSERT_EQ(ra.divergences.size(), rb.divergences.size());
  for (std::size_t i = 0; i < ra.divergences.size(); ++i) {
    EXPECT_EQ(ra.divergences[i].group_id, rb.divergences[i].group_id);
    EXPECT_EQ(ra.divergences[i].permutation, rb.divergences[i].permutation);
    EXPECT_EQ(ra.divergences[i].outcome.outcome_hash,
              rb.divergences[i].outcome.outcome_hash);
  }
}

TEST(Explore, DifferentSeedMayVisitDifferentSamples) {
  // Not asserting inequality (seeds may collide on tiny spaces) — only
  // that a different seed still yields a valid, self-consistent report.
  ExploreOptions opts;
  opts.exhaustive_k = 2;
  opts.samples_above_k = 3;
  opts.seed = 7;
  ToyProbe probe(/*order_sensitive=*/false, /*cohorts=*/1, /*size=*/6);
  const ExploreReport report = explore(probe, opts);
  EXPECT_TRUE(report.identical);
  EXPECT_LE(report.schedules_explored, 3u);
}

TEST(Explore, DporPrunesIndependentPermutations) {
  // Distinct tags per member + a coupling probe reporting zero: every
  // alternative order canonicalizes to the identity, so nothing replays.
  ToyProbe probe(/*order_sensitive=*/false, /*cohorts=*/2, /*size=*/3,
                 /*attach_probe=*/true, /*coupling=*/0);
  ExploreOptions opts;
  opts.exhaustive_k = 3;
  const ExploreReport report = explore(probe, opts);
  EXPECT_EQ(report.schedules_explored, 0u);
  EXPECT_GT(report.schedules_pruned, 0u);
  EXPECT_TRUE(report.identical);

  // Nonzero coupling: the same cohorts must now replay in full.
  ToyProbe coupled(/*order_sensitive=*/false, /*cohorts=*/2, /*size=*/3,
                   /*attach_probe=*/true, /*coupling=*/1);
  const ExploreReport coupled_report = explore(coupled, opts);
  EXPECT_EQ(coupled_report.schedules_explored, 10u);  // 2 * (3! - 1)
  EXPECT_TRUE(coupled_report.identical);
}

TEST(Explore, ZeroToleranceRequiresBitIdentity) {
  // Pure checksum divergence: per-job outcomes move under permutation
  // but the headline aggregates land on identical values. Tolerance 0
  // documents "bit-identical under every explored schedule", so it must
  // fail even though measured drift is zero...
  ToyProbe strict(/*order_sensitive=*/true, /*cohorts=*/1, /*size=*/3,
                  /*attach_probe=*/false, /*coupling=*/0,
                  /*headline_drift=*/false);
  ExploreOptions opts;
  opts.exhaustive_k = 3;
  opts.drift_tolerance = 0.0;
  const ExploreReport report = explore(strict, opts);
  EXPECT_FALSE(report.identical);
  EXPECT_EQ(report.max_drift, 0.0);
  EXPECT_FALSE(report.within_tolerance);

  // ...while any nonzero tolerance gates on the measured drift alone.
  ToyProbe lenient(/*order_sensitive=*/true, /*cohorts=*/1, /*size=*/3,
                   /*attach_probe=*/false, /*coupling=*/0,
                   /*headline_drift=*/false);
  opts.drift_tolerance = 0.1;
  EXPECT_TRUE(explore(lenient, opts).within_tolerance);
}

TEST(CensusPolicy, ResumedGroupAcrossPartitionsRecordsOnce) {
  // PDES shape: partition 0's cohort resumes mid-drain (the kernel keeps
  // the group id) after partition 1 recorded a cohort in between. The
  // census must not record the resumed cohort a second time — a
  // duplicate with mid-drain membership would flag a spurious replay
  // mismatch when the second record is replayed.
  CensusPolicy census;
  const std::vector<des::TieEvent> a{{1, 0}, {2, 1}, {3, 0}};
  const std::vector<des::TieEvent> b{{4, 0}, {5, 1}};
  const des::TieGroup g0{/*id=*/5, /*partition=*/0, 10.0, 2, a.data(),
                         a.size()};
  const des::TieGroup g1{/*id=*/3, /*partition=*/1, 10.0, 2, b.data(),
                         b.size()};
  const des::TieGroup g0_resumed{/*id=*/5, /*partition=*/0, 10.0, 2,
                                 a.data() + 1, a.size() - 1};
  EXPECT_EQ(census.pick(g0), 0u);
  EXPECT_EQ(census.pick(g1), 0u);
  EXPECT_EQ(census.pick(g0_resumed), 0u);
  ASSERT_EQ(census.groups().size(), 2u);
  EXPECT_EQ(census.groups()[0].partition, 0u);
  EXPECT_EQ(census.groups()[0].members.size(), 3u);
  EXPECT_EQ(census.groups()[1].partition, 1u);
}

TEST(Explore, BudgetsAreHonored) {
  ToyProbe probe(/*order_sensitive=*/false, /*cohorts=*/4, /*size=*/3);
  ExploreOptions opts;
  opts.exhaustive_k = 3;
  opts.max_groups = 2;
  const ExploreReport report = explore(probe, opts);
  EXPECT_EQ(report.groups_total, 4u);
  EXPECT_EQ(report.groups_explored, 2u);
  EXPECT_EQ(report.groups_skipped, 2u);
}

/// Trace with three same-timestamp jobs per arrival slot (the shared
/// tie-heavy generator) — the experiment-level probe must surface real
/// tie cohorts from it. One file per test: ctest runs every test as its
/// own process, concurrently, so a shared path would be rewritten under a
/// reader's feet.
std::string explore_ties_trace() {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return write_ties_trace(/*slots=*/15, /*ties_per_slot=*/3,
                          std::string("rrsim_explore_ties_") +
                              test->test_suite_name() + "_" + test->name() +
                              ".swf");
}

core::ExperimentConfig ties_config(const std::string& path) {
  core::ExperimentConfig c;
  c.n_clusters = 2;
  c.nodes_per_cluster = 16;
  c.submit_horizon = 900.0;
  c.trace_files = {path};
  c.seed = 5;
  c.retain_records = true;
  return c;
}

TEST(ExperimentProbeTest, RequiresRetainedRecords) {
  core::ExperimentConfig c = ties_config(explore_ties_trace());
  c.retain_records = false;
  EXPECT_THROW(ExperimentProbe{c}, std::invalid_argument);
}

TEST(ExperimentProbeTest, ExplorationIsDeterministic) {
  const std::string path = explore_ties_trace();
  ExploreOptions opts;
  opts.exhaustive_k = 3;
  opts.max_groups = 4;
  opts.seed = 11;
  ExperimentProbe a(ties_config(path));
  ExperimentProbe b(ties_config(path));
  const ExploreReport ra = explore(a, opts);
  const ExploreReport rb = explore(b, opts);
  EXPECT_GT(ra.groups_total, 0u);
  EXPECT_EQ(ra.baseline.outcome_hash, rb.baseline.outcome_hash);
  EXPECT_EQ(ra.schedules_explored, rb.schedules_explored);
  EXPECT_EQ(ra.divergence_count, rb.divergence_count);
  EXPECT_EQ(ra.replay_mismatches, 0u);
  EXPECT_EQ(rb.replay_mismatches, 0u);
}

TEST(ExperimentProbeTest, RedundantArrivalsAreUntagged) {
  // Under a redundant scheme every arrival consumes shared global state
  // (the single placement substream plus the live queue-length snapshot
  // in run_experiment's submit step), so same-timestamp arrivals on
  // different clusters are still order-coupled. The schedule sites must
  // leave them untagged — a cluster tag would let the DPOR criterion
  // prune their permutations as independent and certify a falsely
  // IDENTICAL verdict.
  const std::string path = explore_ties_trace();
  core::ExperimentConfig redundant = ties_config(path);
  redundant.scheme = core::RedundancyScheme::fixed(2);
  CensusPolicy census;
  redundant.tie_break_policy = &census;
  core::run_experiment(redundant);
  bool saw_arrival_cohort = false;
  for (const TieGroupRecord& g : census.groups()) {
    if (g.priority != static_cast<int>(des::Priority::kArrival)) continue;
    saw_arrival_cohort = true;
    for (const des::TieEvent& e : g.members) {
      EXPECT_EQ(e.tag, des::kNoEventTag);
    }
  }
  EXPECT_TRUE(saw_arrival_cohort);

  // Without redundancy no placement draw can happen: arrivals stay
  // cluster-tagged, so cross-cluster arrival permutations remain
  // prunable.
  core::ExperimentConfig plain = ties_config(path);
  CensusPolicy plain_census;
  plain.tie_break_policy = &plain_census;
  core::run_experiment(plain);
  bool saw_tagged_arrival = false;
  for (const TieGroupRecord& g : plain_census.groups()) {
    if (g.priority != static_cast<int>(des::Priority::kArrival)) continue;
    for (const des::TieEvent& e : g.members) {
      if (e.tag != des::kNoEventTag) saw_tagged_arrival = true;
    }
  }
  EXPECT_TRUE(saw_tagged_arrival);
}

TEST(ExperimentProbeTest, PdesArrivalCohortsHoldAPartitionsWholeInstant) {
  // Each PDES partition stages every same-instant arrival of its cluster
  // before the first one fires, so the census sees each slot of the
  // trace as one kArrival cohort per partition: all three tied jobs,
  // tagged with the partition's cluster. (A pump keeping one arrival in
  // flight would chain them, and no arrival cohort would be recorded.)
  core::ExperimentConfig c = ties_config(explore_ties_trace());
  c.pdes = true;
  c.cross_cluster_latency = 60.0;
  c.pdes_jobs = 1;
  CensusPolicy census;
  c.tie_break_policy = &census;
  core::run_experiment(c);
  std::vector<std::size_t> cohorts(c.n_clusters, 0);
  for (const TieGroupRecord& g : census.groups()) {
    if (g.priority != static_cast<int>(des::Priority::kArrival)) continue;
    ASSERT_LT(g.partition, c.n_clusters);
    EXPECT_EQ(g.members.size(), 3u) << "t=" << g.time;
    for (const des::TieEvent& e : g.members) {
      EXPECT_EQ(e.tag, g.partition);
    }
    ++cohorts[g.partition];
  }
  // The trace's 15 slots all fall inside the 900 s horizon.
  for (std::size_t p = 0; p < c.n_clusters; ++p) {
    EXPECT_EQ(cohorts[p], 15u) << "partition " << p;
  }
}

TEST(OutcomeOf, CommutativeOverRecordOrder) {
  metrics::JobRecords records;
  for (int i = 0; i < 5; ++i) {
    metrics::JobRecord r{};
    r.grid_id = static_cast<std::uint32_t>(i);
    r.submit_time = 10.0 * i;
    r.start_time = r.submit_time + 1.0;
    r.finish_time = r.start_time + 30.0;
    r.actual_time = 30.0;
    r.nodes = 1 + i;
    records.push_back(r);
  }
  const RunOutcome forward = outcome_of(records, 2);
  metrics::JobRecords reversed(records.rbegin(), records.rend());
  const RunOutcome backward = outcome_of(reversed, 2);
  EXPECT_EQ(forward.outcome_hash, backward.outcome_hash);
  EXPECT_EQ(forward.jobs, backward.jobs);
  EXPECT_EQ(forward.mean_stretch, backward.mean_stretch);

  // And sensitive to a change in any record.
  records[3].finish_time += 1.0;
  EXPECT_NE(outcome_of(records, 2).outcome_hash, forward.outcome_hash);
}

}  // namespace
}  // namespace rrsim::check

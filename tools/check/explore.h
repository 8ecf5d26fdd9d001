// Tie-break schedule explorer (DPOR-lite).
//
// The DES kernel dispatches same-(time, priority) cohorts in seq order —
// one canonical schedule out of the s! ways each cohort of size s could
// legally drain. Model results must not depend on that arbitrary choice:
// any metric that moves when a tie cohort is permuted is an artifact of
// insertion order, not of the system being modelled. This library drives
// des::TieBreakPolicy to visit the other schedules and check.
//
// Shape of an exploration:
//   1. Census run: a policy that picks seq order everywhere (bit-identical
//      to no policy at all) while recording every cohort of size >= 2 plus
//      a coupling sample from the kernel's partition metadata.
//   2. Per cohort, enumerate alternative orders — exhaustively for
//      cohorts of size <= k (k! - 1 permutations), by seeded sampling
//      above — and prune DPOR-style: a permutation that only reorders
//      events proven independent (distinct cluster tags, zero
//      cross-cluster coupling at the cohort's timestamp) is schedule-
//      equivalent to a canonical representative and need not be replayed.
//   3. Replay each surviving permutation through the probe and compare an
//      order-insensitive checksum of the per-job outcomes plus headline
//      metrics (mean / p99 stretch, duplicate starts) against the census
//      baseline.
//   4. For each diverging cohort, minimize the witness: try the s - 1
//      single adjacent transpositions and keep the first that already
//      reproduces the divergence.
//
// The probe abstraction keeps the explorer kernel-agnostic: the same loop
// drives the classic single-simulation kernel and the PDES coordinator
// (pdes_jobs == 1, so policy calls stay single-threaded). In an
// RRSIM_VALIDATE build every replay additionally runs under the kernel's
// internal oracles (dispatch order, CBF/EASY rebuild replicas), which
// turns the explorer into a fuzzer for the incremental fast paths under
// permuted schedules.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "rrsim/core/experiment.h"
#include "rrsim/des/simulation.h"
#include "rrsim/metrics/record.h"

namespace rrsim::check {

/// Coupling sample when no probe was attached for a partition: unknown,
/// treated as "everything may interact" (no pruning).
inline constexpr std::uint64_t kCouplingUnknown = ~0ull;

/// Order-insensitive digest of one run: per-job outcomes folded
/// commutatively (so finish order does not matter) plus the headline
/// metrics the paper reports.
struct RunOutcome {
  std::uint64_t outcome_hash = 0;
  std::uint64_t jobs = 0;
  double mean_stretch = 0.0;
  double p99_stretch = 0.0;
  std::uint64_t duplicate_starts = 0;
};

/// Digest of a finished record set. Exposed for tests; ExperimentProbe
/// uses it internally.
RunOutcome outcome_of(const metrics::JobRecords& records,
                      std::uint64_t duplicate_starts);

/// One deterministic end-to-end run under a given tie-break policy. The
/// probe owns everything about the run except the policy.
class ScheduleProbe {
 public:
  virtual ~ScheduleProbe() = default;
  virtual RunOutcome run(des::TieBreakPolicy& policy) = 0;
};

/// Probe over core::run_experiment — classic kernel, or PDES when
/// config.pdes is set (pdes_jobs is forced to 1). Requires
/// retain_records: the outcome checksum needs per-job records.
class ExperimentProbe final : public ScheduleProbe {
 public:
  explicit ExperimentProbe(core::ExperimentConfig config);
  RunOutcome run(des::TieBreakPolicy& policy) override;
  const core::ExperimentConfig& config() const noexcept { return config_; }

 private:
  core::ExperimentConfig config_;
};

/// A tie cohort recorded by the census pass.
struct TieGroupRecord {
  std::uint64_t id = 0;         ///< kernel group ordinal (replay address)
  std::uint32_t partition = 0;
  des::Time time = 0.0;
  int priority = 0;
  /// First-pick membership snapshot, seq ascending.
  std::vector<des::TieEvent> members;
  /// Cross-partition coupling sampled at first pick (kCouplingUnknown if
  /// no probe was attached for the cohort's partition).
  std::uint64_t coupling = kCouplingUnknown;
};

/// Baseline policy: picks seq order everywhere (dispatch-identical to
/// running without a policy) and records every cohort of size >= 2.
class CensusPolicy : public des::TieBreakPolicy {
 public:
  std::size_t pick(const des::TieGroup& group) override;
  void attach_coupling_probe(std::uint32_t partition,
                             std::function<std::uint64_t()> probe) override;

  const std::vector<TieGroupRecord>& groups() const noexcept {
    return groups_;
  }
  /// Clears recorded groups and probes for reuse across runs.
  void reset();

 private:
  /// True if `group` is the one this partition recorded most recently —
  /// i.e. a resumed group mid-drain, possibly with other partitions'
  /// groups recorded in between. Updates the per-partition last-id map.
  bool already_recorded(const des::TieGroup& group);
  std::uint64_t coupling_sample(std::uint32_t partition) const;

  struct Probe {
    std::uint32_t partition;
    std::function<std::uint64_t()> fn;
  };
  std::vector<TieGroupRecord> groups_;
  std::vector<Probe> probes_;
  /// partition -> id of the last group recorded for it.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> last_ids_;
};

/// Replay policy: applies one permutation to one target cohort, seq order
/// everywhere else. Events that join the cohort while it drains (same
/// (t, p) scheduled mid-group) queue behind the permuted prefix in seq
/// order. If the target cohort's membership does not match the census
/// snapshot at first pick, the policy falls back to seq order and flags
/// replay_mismatch() — the schedule prefix was not reproduced.
class PermutationPolicy : public des::TieBreakPolicy {
 public:
  /// `ranks` is a permutation of [0, group.members.size()): position i of
  /// the replayed cohort dispatches census member ranks[i].
  PermutationPolicy(const TieGroupRecord& group,
                    const std::vector<std::uint32_t>& ranks);
  std::size_t pick(const des::TieGroup& group) override;
  bool replay_mismatch() const noexcept { return mismatch_; }
  bool replayed() const noexcept { return verified_; }

 private:
  std::uint64_t target_id_;
  std::uint32_t target_partition_;
  std::vector<std::uint64_t> expected_;  ///< census seqs, ascending
  std::vector<std::uint64_t> order_;     ///< seqs in permuted order
  std::size_t cursor_ = 0;
  bool verified_ = false;
  bool mismatch_ = false;
};

struct ExploreOptions {
  /// Cohorts of size <= exhaustive_k are explored exhaustively
  /// (size! - 1 alternative orders before pruning).
  std::size_t exhaustive_k = 4;
  /// Seeded random shuffles per cohort above exhaustive_k.
  std::size_t samples_above_k = 4;
  std::uint64_t seed = 1;
  /// Cohort budget (0 = all). Cohorts beyond it are counted, not run.
  std::size_t max_groups = 0;
  /// Total replay budget (0 = unbounded), witness replays excluded.
  std::size_t max_schedules = 0;
  /// Relative drift on headline metrics tolerated by the verdict. Zero
  /// is strict: the verdict then requires bit-identical outcome hashes,
  /// not merely zero measured headline drift.
  double drift_tolerance = 0.0;
  /// Minimize the first divergence per cohort to an adjacent
  /// transposition when one reproduces it.
  bool minimize_witnesses = true;
  /// Divergence records kept in the report (all are still counted).
  std::size_t max_divergences = 16;
};

/// One schedule whose outcome differs from the baseline.
struct Divergence {
  std::uint64_t group_id = 0;
  std::uint32_t partition = 0;
  des::Time time = 0.0;
  int priority = 0;
  std::size_t group_size = 0;
  std::vector<std::uint32_t> permutation;  ///< ranks that diverged
  RunOutcome outcome;
  double drift_mean_stretch = 0.0;
  double drift_p99_stretch = 0.0;
  double drift_duplicate_starts = 0.0;
  /// Minimized witness: a single adjacent transposition when one
  /// reproduces a divergence, otherwise `permutation` itself.
  std::vector<std::uint32_t> witness;
  bool witness_is_transposition = false;
};

struct ExploreReport {
  RunOutcome baseline;
  std::uint64_t groups_total = 0;     ///< census cohorts of size >= 2
  std::uint64_t groups_explored = 0;
  std::uint64_t groups_skipped = 0;   ///< over budget (max_groups /
                                      ///< max_schedules)
  std::uint64_t schedules_explored = 0;
  std::uint64_t schedules_pruned = 0;  ///< DPOR-equivalent, not replayed
  std::uint64_t witness_replays = 0;
  std::uint64_t divergence_count = 0;  ///< diverging schedules (all)
  std::uint64_t replay_mismatches = 0;
  bool identical = true;   ///< every replay matched the baseline checksum
  double max_drift = 0.0;  ///< worst relative headline drift seen
  bool within_tolerance = true;  ///< no replay mismatch, and identical
                                 ///< (tolerance 0) or max_drift <=
                                 ///< tolerance (tolerance > 0)
  std::vector<Divergence> divergences;  ///< capped at max_divergences
  bool oracles_armed = false;  ///< RRSIM_VALIDATE build: every replay ran
                               ///< under the kernel/scheduler oracles
  std::uint64_t seed = 0;
  std::size_t exhaustive_k = 0;
};

/// Runs the census + exploration loop described above.
ExploreReport explore(ScheduleProbe& probe, const ExploreOptions& opts);

/// Machine-readable report (one JSON object).
void write_report_json(const ExploreReport& report, std::FILE* out);

/// DPOR-lite canonical form of `ranks` for cohort `group`: adjacent pairs
/// that are out of seq order *and* provably independent (distinct cluster
/// tags, both tagged, coupling == 0) are bubbled back until fixpoint. Two
/// permutations with equal canonical forms are schedule-equivalent; the
/// identity canonical form means equivalent to the baseline. Exposed for
/// tests.
std::vector<std::uint32_t> canonical_ranks(const TieGroupRecord& group,
                                           std::vector<std::uint32_t> ranks);

}  // namespace rrsim::check

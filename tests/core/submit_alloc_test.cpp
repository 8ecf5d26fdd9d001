// Pins what a grid job's submission allocates once the workspace is warm.
// The arrival pump reuses its cohort, redundant placement appends into the
// cohort's target list without snapshotting every queue or copying the
// eligible pool, and the gateway registers and delivers replicas without
// scratch vectors, so the one allocation left per job is the gateway's
// replica list. Global operator new is replaced with a counting shim for
// this binary; each config runs twice on one workspace, and only the
// second run (trace cache, event slab, scheduler arenas and hash tables
// all warm) is counted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "rrsim/core/experiment.h"
#include "rrsim/core/paper.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// Never inlined: GCC 12 flags free() on a pointer from an operator new it
// did not inline (-Wmismatched-new-delete), as in sanitizer builds.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rrsim::core {
namespace {

/// Allowed allocations per generated job on the warm run: the replica
/// list, plus a margin for the per-run set-up (pumps, trackers, result
/// vectors) that does not scale with the jobs.
constexpr double kMaxAllocationsPerJob = 1.25;

/// Runs `config` twice on one workspace and returns the second run's
/// allocations per generated job.
double warm_allocations_per_job(const ExperimentConfig& config) {
  ExperimentWorkspace workspace;
  (void)run_experiment(config, workspace);
  const std::uint64_t before = g_allocations.load();
  const SimResult r = run_experiment(config, workspace);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_GT(r.jobs_generated, 0u);
  const double per_job = static_cast<double>(allocations) /
                         static_cast<double>(r.jobs_generated);
  std::printf("%llu allocations over %llu jobs: %.2f per job\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(r.jobs_generated), per_job);
  return per_job;
}

TEST(SubmitAllocations, StreamingRunOnSixtyFourClusters) {
  // The grid_windowed benchmark's shape, cut down: 128-node clusters at a
  // calibrated 0.7 load, half the jobs sending four requests to clusters
  // drawn uniformly, records folded as they finish.
  ExperimentConfig c;
  c.n_clusters = 64;
  c.nodes_per_cluster = 128;
  c.load_mode = LoadMode::kCalibrated;
  c.target_utilization = 0.7;
  c.submit_horizon = 2.0 * 3600.0;
  c.scheme = RedundancyScheme::fixed(4);
  c.redundant_fraction = 0.5;
  c.retain_records = false;
  c.stream_window = 256;
  EXPECT_LE(warm_allocations_per_job(c), kMaxAllocationsPerJob);
}

TEST(SubmitAllocations, Fig1QuickAllOnTwentyClusters) {
  // Every job sends a request to every cluster: the eligible pool is
  // materialised in the job's own target list.
  ExperimentConfig c = figure_config_quick();
  c.n_clusters = 20;
  c.scheme = RedundancyScheme::all();
  EXPECT_LE(warm_allocations_per_job(c), kMaxAllocationsPerJob);
}

}  // namespace
}  // namespace rrsim::core

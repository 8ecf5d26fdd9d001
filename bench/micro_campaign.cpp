// Campaign/kernel throughput benchmark and perf record.
//
// Measures (1) DES kernel event throughput — both the current pooled-slab
// kernel and an in-file replica of the pre-pool design (one
// std::shared_ptr<State> per event) so the event-pool win stays visible in
// the record — and (2) wall-clock of a relative campaign at --jobs 1
// versus --jobs N, which bounds every figure/table harness in bench/.
// Writes the results to BENCH_campaign.json so future PRs have a perf
// trajectory to compare against.
//
//   ./micro_campaign [--reps=16] [--jobs=8] [--events=2000000]
//                    [--out=BENCH_campaign.json] plus common flags.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "rrsim/des/simulation.h"

namespace {

using namespace rrsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Legacy kernel replica: a faithful copy of the seed tree's
// des::Simulation hot path, which allocated one shared_ptr<State> control
// block per event. Validation, priority tie-breaking, live-event
// accounting and the returned handle all mirror the original so the
// comparison isolates the event-state representation.
class LegacySharedPtrKernel {
 public:
  struct State {
    std::function<void()> callback;
    bool cancelled = false;
    bool fired = false;
    std::size_t* live = nullptr;
  };
  struct Entry {
    double time;
    int priority;
    std::uint64_t seq;
    std::shared_ptr<State> state;
  };
  struct Compare {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  double now = 0.0;

  std::shared_ptr<State> schedule(double t, std::function<void()> cb,
                                  int prio = 3) {
    if (!(t >= now) || !std::isfinite(t)) {
      throw std::invalid_argument("schedule: time must be finite and >= now");
    }
    if (!cb) throw std::invalid_argument("schedule: empty callback");
    auto state = std::make_shared<State>();
    state->callback = std::move(cb);
    state->live = &live_;
    queue_.push(Entry{t, prio, next_seq_++, state});
    ++live_;
    return state;  // the original returned an EventHandle wrapping this
  }

  std::uint64_t run() {
    std::uint64_t dispatched = 0;
    while (!queue_.empty()) {
      Entry e = queue_.top();
      queue_.pop();
      if (e.state->cancelled) continue;
      now = e.time;
      e.state->fired = true;
      if (live_ > 0) --live_;
      auto cb = std::move(e.state->callback);
      cb();
      ++dispatched;
    }
    return dispatched;
  }

 private:
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Compare> queue_;
};

// Both kernels are measured under the simulator's real access pattern:
// a bounded set of live events (kLiveEvents) where every dispatch
// schedules a replacement — steady-state churn that recycles pool slots
// (and, in the legacy design, allocates a fresh control block per event).
constexpr std::size_t kLiveEvents = 1024;

// Cheap deterministic jitter so the heap sees varied orderings.
struct Jitter {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  double next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 40) * 0x1.0p-24 + 1e-3;
  }
};

// The `[this]` captures below fit std::function's small-buffer storage,
// so the callback itself never allocates — the measured difference is
// purely the event-state bookkeeping (pooled slot vs. shared_ptr).
struct PooledChurn {
  des::Simulation sim;
  Jitter jitter;
  std::uint64_t remaining = 0;
  void tick() {
    if (remaining == 0) return;
    --remaining;
    sim.schedule_in(jitter.next(), [this] { tick(); });
  }
};

double pooled_kernel_events_per_sec(std::size_t events) {
  const auto start = Clock::now();
  PooledChurn churn;
  churn.remaining = events;
  for (std::size_t i = 0; i < kLiveEvents && churn.remaining > 0; ++i) {
    churn.tick();
  }
  churn.sim.run();
  const double elapsed = seconds_since(start);
  return static_cast<double>(churn.sim.dispatched()) / elapsed;
}

struct LegacyChurn {
  LegacySharedPtrKernel kernel;
  Jitter jitter;
  std::uint64_t remaining = 0;
  void tick() {
    if (remaining == 0) return;
    --remaining;
    kernel.schedule(kernel.now + jitter.next(), [this] { tick(); });
  }
};

double legacy_kernel_events_per_sec(std::size_t events) {
  const auto start = Clock::now();
  LegacyChurn churn;
  churn.remaining = events;
  for (std::size_t i = 0; i < kLiveEvents && churn.remaining > 0; ++i) {
    churn.tick();
  }
  const std::uint64_t dispatched = churn.kernel.run();
  const double elapsed = seconds_since(start);
  return static_cast<double>(dispatched) / elapsed;
}

// On a loaded single-core box a one-shot kernel timing swings by +/-40%
// run to run (the 0.91x "regression" recorded by an earlier BENCH run was
// exactly such an outlier: interleaved re-measurement never reproduced a
// pooled loss). Each kernel therefore gets a short warmup and the two
// kernels are timed in alternation; the recorded figure is the best of
// `kKernelSamples` so transient preemption inflates neither side.
constexpr int kKernelSamples = 3;

struct KernelTimings {
  double legacy = 0.0;
  double pooled = 0.0;
};

KernelTimings measure_kernels(std::size_t events) {
  const std::size_t warmup = std::min<std::size_t>(events / 8, 100000);
  legacy_kernel_events_per_sec(warmup);
  pooled_kernel_events_per_sec(warmup);
  KernelTimings best;
  for (int i = 0; i < kKernelSamples; ++i) {
    best.legacy = std::max(best.legacy, legacy_kernel_events_per_sec(events));
    best.pooled = std::max(best.pooled, pooled_kernel_events_per_sec(events));
  }
  return best;
}

core::ExperimentConfig campaign_config(const util::Cli& cli) {
  core::ExperimentConfig c =
      core::apply_common_flags(core::figure_config_quick(), cli);
  if (!cli.has("clusters")) c.n_clusters = 4;
  if (!cli.has("hours")) c.submit_horizon = 0.5 * 3600.0;
  if (c.scheme.is_none()) c.scheme = core::RedundancyScheme::half();
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  return rrsim::bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    const int reps = rrsim::bench::repetitions(cli, 16);
    const int jobs = exec::default_jobs();
    const auto events = static_cast<std::size_t>(cli.get_int_in(
        "events", 2000000, 1, std::numeric_limits<std::int64_t>::max()));
    const std::string out_path =
        cli.get_string("out", "BENCH_campaign.json");
    const core::ExperimentConfig config = campaign_config(cli);
    cli.reject_unread();
    rrsim::bench::banner(
        "micro_campaign - campaign and kernel throughput",
        "wall-clock of a paired relative campaign at --jobs 1 vs --jobs N,\n"
        "plus DES kernel events/sec (pooled slab vs legacy shared_ptr)",
        reps);

    std::printf(
        "kernel event throughput (%zu events, best of %d, single thread):\n",
        events, kKernelSamples);
    const KernelTimings kernels = measure_kernels(events);
    const double legacy_eps = kernels.legacy;
    const double pooled_eps = kernels.pooled;
    std::printf("  legacy shared_ptr kernel : %12.0f events/s\n", legacy_eps);
    std::printf("  pooled slab kernel       : %12.0f events/s  (%.2fx)\n\n",
                pooled_eps, pooled_eps / legacy_eps);

    std::printf("campaign: %zu clusters, scheme %s, %d reps\n",
                config.n_clusters, config.scheme.name().c_str(), reps);

    auto start = Clock::now();
    const core::RelativeMetrics serial =
        core::run_relative_campaign(config, reps, 1);
    const double serial_s = seconds_since(start);
    std::printf("  --jobs 1  : %8.2f s  (rel stretch %.3f)\n", serial_s,
                serial.rel_avg_stretch);

    start = Clock::now();
    const core::RelativeMetrics parallel =
        core::run_relative_campaign(config, reps, jobs);
    const double parallel_s = seconds_since(start);
    const double speedup = serial_s / parallel_s;
    std::printf("  --jobs %-2d : %8.2f s  (rel stretch %.3f)  speedup %.2fx\n",
                jobs, parallel_s, parallel.rel_avg_stretch, speedup);
    if (serial.rel_avg_stretch != parallel.rel_avg_stretch) {
      throw std::runtime_error(
          "determinism violation: --jobs 1 and --jobs N disagree");
    }

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("cannot write " + out_path);
    }
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"micro_campaign\",\n");
    bench::write_json_env_fields(f, jobs);
    std::fprintf(f,
                 "  \"kernel_events\": %zu,\n"
                 "  \"kernel_samples_best_of\": %d,\n"
                 "  \"kernel_events_per_sec_legacy_shared_ptr\": %.0f,\n"
                 "  \"kernel_events_per_sec_pooled\": %.0f,\n"
                 "  \"kernel_speedup\": %.4f,\n"
                 "  \"campaign_reps\": %d,\n"
                 "  \"campaign_clusters\": %zu,\n"
                 "  \"campaign_scheme\": \"%s\",\n"
                 "  \"campaign_seconds_jobs1\": %.4f,\n"
                 "  \"campaign_jobs\": %d,\n"
                 "  \"campaign_seconds_jobsN\": %.4f,\n"
                 "  \"campaign_speedup\": %.4f,\n"
                 "  \"deterministic_across_jobs\": true\n"
                 "}\n",
                 events, kKernelSamples, legacy_eps, pooled_eps,
                 pooled_eps / legacy_eps,
                 reps, config.n_clusters, config.scheme.name().c_str(),
                 serial_s, jobs, parallel_s, speedup);
    std::fclose(f);
    std::printf("\nperf record written to %s\n", out_path.c_str());
  });
}

// DES kernel hot-path benchmark and perf record.
//
// Times the production kernel (one binary heap of 24-byte entries over a
// pooled slab, inline callbacks, cancelled entries purged once they
// outnumber live events) under three event mixes, and the flat job-table
// maps under the scheduler/gateway access mix:
//
//   1. schedule–cancel–dispatch churn: batched arrivals spread over a
//      wide horizon, a quarter of them cancelled before firing, callbacks
//      injecting same-pass follow-ups — the event mix of a
//      redundant-request campaign that schedules its arrivals far ahead
//      (about 4 000 pending; with rrsim's arrival pump the perfbench
//      workloads peak at 70 to 1 809);
//   2. live-event churn: 1 024 live events, each dispatch scheduling its
//      replacement, so every slot is recycled;
//   3. wake-up churn, CBF's pattern: about 100 live events, and on every
//      dispatch one wake-up moved with EventHandle::reschedule, mostly to
//      the time it already has (the row records its heap pushes);
//   4. flat hash and flat ordered map churn.
//
// Every row is timed by bench::time_repeatable: the churns are
// deterministic, so every run must dispatch the same events in the same
// order (a folded trace checksum), and a run that differs aborts the
// bench. That the kernel keeps its contract order is checked by
// CalendarQueue.* in des_tests, and the maps against std containers by
// the RandomizedAgainstMapOracle* tests in util_tests.
//
//   ./micro_kernel [--batches=60] [--events=4000] [--map-ops=2000000]
//                  [--out=BENCH_kernel.json]

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "rrsim/des/simulation.h"
#include "rrsim/util/flat_map.h"
#include "rrsim/util/rng.h"

namespace {

using namespace rrsim;

// ---------------------------------------------------------------------------
// Kernel churn workload. Each batch schedules a spread of events over a
// wide horizon, cancels a quarter of them, then advances half the
// horizon so roughly half the batch stays pending into the next one —
// steady-state churn, not a drain-from-empty toy. A fifth of the
// dispatched events schedule a short-fuse follow-up from inside their
// callback, exercising schedule-during-dispatch. The dispatch trace is
// folded into a checksum keyed by event id and the bit pattern of the
// dispatch timestamp.

struct ChurnStats {
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t heap_pushes = 0;
  std::uint64_t checksum = 0;
  bool operator==(const ChurnStats&) const = default;
};

void fold(ChurnStats& s, std::uint64_t id, double when) {
  std::uint64_t bits;
  std::memcpy(&bits, &when, sizeof bits);
  s.checksum = (s.checksum * 6364136223846793005ULL) ^ (id + bits);
}

ChurnStats run_churn(int batches, int events_per_batch, std::uint64_t seed) {
  constexpr double kHorizon = 5.0e4;
  des::Simulation k;
  util::Rng rng(seed);
  ChurnStats s;
  std::uint64_t next_id = 1;
  std::vector<des::Simulation::EventHandle> handles;
  handles.reserve(static_cast<std::size_t>(events_per_batch));

  for (int b = 0; b < batches; ++b) {
    const double base = k.now();
    handles.clear();
    for (int i = 0; i < events_per_batch; ++i) {
      const std::uint64_t id = next_id++;
      const double t = base + rng.uniform(0.0, kHorizon);
      const auto prio =
          static_cast<des::Priority>(rng.between(0, 3));
      const bool follow_up = rng.chance(0.2);
      handles.push_back(k.schedule_at(
          t,
          [&k, &s, id, follow_up] {
            fold(s, id, k.now());
            if (follow_up) {
              // Same-pass insertion: fires within the current run/run_until
              // window, after already-queued events of equal (time, prio).
              ++s.scheduled;
              k.schedule_at(k.now() + 0.25,
                            [&s, id] { fold(s, id ^ 0x9e3779b97f4a7c15ULL,
                                            0.25); },
                            des::Priority::kControl);
            }
          },
          prio));
      ++s.scheduled;
    }
    for (auto& h : handles) {
      if (rng.chance(0.25) && h.cancel()) ++s.cancelled;
    }
    k.run_until(base + kHorizon / 2.0);
  }
  k.run();
  s.dispatched = k.dispatched();
  s.heap_pushes = k.heap_pushes();
  return s;
}

// ---------------------------------------------------------------------------
// Live-event churn: a bounded set of live events where every dispatch
// schedules a replacement, the simulator's steady state, recycling pool
// slots. The `[this]` capture fits the kernel's inline callback storage.
constexpr std::size_t kLiveEvents = 1024;
constexpr std::uint64_t kLiveChurnEvents = 2000000;

// Cheap deterministic jitter so the heap sees varied orderings.
struct Jitter {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  double next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 40) * 0x1.0p-24 + 1e-3;
  }
};

struct LiveChurn {
  des::Simulation sim;
  Jitter jitter;
  std::uint64_t remaining = kLiveChurnEvents;
  void tick() {
    if (remaining == 0) return;
    --remaining;
    sim.schedule_in(jitter.next(), [this] { tick(); });
  }
};

/// Runs the live churn and returns the events it dispatched.
std::uint64_t run_live_churn() {
  LiveChurn churn;
  for (std::size_t i = 0; i < kLiveEvents; ++i) churn.tick();
  churn.sim.run();
  return churn.sim.dispatched();
}

// ---------------------------------------------------------------------------
// Wake-up churn: CBF's dispatch_ready pattern. A hundred live events each
// schedule their replacement, and every dispatch moves one wake-up event
// with EventHandle::reschedule: seven passes in eight to the time it
// already has, every eighth a short hop from now (earlier or later). A
// wake-up that fires is scheduled afresh on the next pass. The dispatch
// trace is folded into a checksum.
constexpr std::size_t kWakeupLiveEvents = 100;
constexpr std::uint64_t kWakeupChurnEvents = 1000000;

struct WakeupChurn {
  des::Simulation sim;
  Jitter jitter;
  std::uint64_t remaining = kWakeupChurnEvents;
  std::uint64_t passes = 0;
  des::Simulation::EventHandle wakeup;
  des::Time wakeup_at = 0.0;
  ChurnStats stats;

  void tick(std::uint64_t id) {
    fold(stats, id, sim.now());
    move_wakeup();
    if (remaining == 0) return;
    --remaining;
    sim.schedule_in(jitter.next(), [this, id] { tick(id); });
  }

  void move_wakeup() {
    if (++passes % 8 == 0 || !wakeup.pending()) {
      wakeup_at = sim.now() + 2.0 * jitter.next();
    }
    if (!wakeup.reschedule(wakeup_at)) {
      wakeup = sim.schedule_at(
          wakeup_at, [this] { fold(stats, 0, sim.now()); },
          des::Priority::kControl);
    }
  }
};

ChurnStats run_wakeup_churn() {
  WakeupChurn churn;
  for (std::uint64_t id = 1; id <= kWakeupLiveEvents; ++id) churn.tick(id);
  churn.sim.run();
  ChurnStats s = churn.stats;
  s.scheduled = churn.sim.scheduled();
  s.cancelled = churn.sim.cancelled();
  s.dispatched = churn.sim.dispatched();
  s.heap_pushes = churn.sim.heap_pushes();
  return s;
}

// ---------------------------------------------------------------------------
// Job-table map churn: the access mix of the scheduler/gateway hot path
// (insert on submit, point lookups on grant/finish, erase on cancel) over
// a bounded id universe. The op script is a pure function of the loop
// index. The universe is sized to the table being modelled: the hash map
// stands in for the pending/tracking tables (tens of thousands of ids
// touched across a campaign-length cancel storm), the ordered map for the
// running-jobs table, whose population is bounded by cluster node count
// (order of a hundred) but which the scheduler *walks in key order* on
// every profile rebuild and dispatch pass — so the ordered churn
// interleaves a full iteration every IterateEvery ops.

struct MapStats {
  std::uint64_t hits = 0;
  double value_sum = 0.0;
  std::size_t final_size = 0;
  bool operator==(const MapStats&) const = default;
};

void map_insert(util::FlatHashMap<std::uint64_t, double>& m, std::uint64_t k,
                double v) {
  m.try_emplace(k, v);
}
void map_insert(util::FlatOrderedMap<std::uint64_t, double>& m,
                std::uint64_t k, double v) {
  m.emplace(k, v);
}

const double* map_find(const util::FlatHashMap<std::uint64_t, double>& m,
                       std::uint64_t k) {
  return m.find(k);
}
const double* map_find(const util::FlatOrderedMap<std::uint64_t, double>& m,
                       std::uint64_t k) {
  const auto it = m.find(k);
  return it == m.end() ? nullptr : &it->second;
}

template <typename Map, int IterateEvery = 0>
MapStats run_map_churn(std::int64_t ops, std::uint64_t universe) {
  Map m;
  MapStats s;
  std::uint64_t x = 0x243f6a8885a308d3ULL;  // splitmix-style op script
  for (std::int64_t i = 0; i < ops; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    const std::uint64_t key = (z ^ (z >> 31)) % universe;
    switch (i & 3) {
      case 0:
        map_insert(m, key, static_cast<double>(key) * 1.5);
        break;
      case 3:
        m.erase(key);
        break;
      default:
        if (const double* v = map_find(m, key)) {
          ++s.hits;
          s.value_sum += *v;
        }
        break;
    }
    if constexpr (IterateEvery != 0) {
      if (i % IterateEvery == 0) {
        for (const auto& kv : m) s.value_sum += kv.second;
      }
    }
  }
  s.final_size = m.size();
  return s;
}

void print_row(const char* name, const bench::Timing& t, double ops,
               const char* unit) {
  std::printf("  %-12s %8.4f s  [%.4f, %.4f]  %12.0f %s\n", name, t.median,
              t.min, t.max, ops / t.median, unit);
}

}  // namespace

int main(int argc, char** argv) {
  return rrsim::bench::run_harness([&] {
    const util::Cli cli(argc, argv);
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    const auto batches =
        static_cast<int>(cli.get_int_in("batches", 60, 1, kIntMax));
    const auto events =
        static_cast<int>(cli.get_int_in("events", 4000, 1, kIntMax));
    const std::int64_t map_ops = cli.get_int_in(
        "map-ops", 2000000, 1, std::numeric_limits<std::int64_t>::max());
    const std::string out_path = cli.get_string("out", "BENCH_kernel.json");
    cli.reject_unread();

    std::printf("=== micro_kernel - DES kernel hot-path throughput ===\n");
    std::printf(
        "schedule-cancel-dispatch churn (%d batches x %d events, 25%%\n"
        "cancelled, 20%% follow-up insertions), %zu-live-event churn\n"
        "(%llu events) and a wake-up moved on each of %llu dispatches\n"
        "among %zu live events through the pooled-heap kernel, then\n"
        "job-table map churn (%lld ops) through the flat maps; seconds are\n"
        "the median of %d timed runs after a warm-up, [min, max] beside\n"
        "them\n\n",
        batches, events, kLiveEvents,
        static_cast<unsigned long long>(kLiveChurnEvents),
        static_cast<unsigned long long>(kWakeupChurnEvents), kWakeupLiveEvents,
        static_cast<long long>(map_ops), bench::kTimedRuns);

    constexpr std::uint64_t kSeed = 20260807;
    const auto [churn_t, churn] = bench::time_repeatable(
        "kernel churn", [&] { return run_churn(batches, events, kSeed); });
    const auto churn_events = static_cast<double>(
        churn.scheduled + churn.cancelled + churn.dispatched);
    print_row("churn", churn_t, churn_events, "events/s");
    const auto [live_t, live_dispatched] =
        bench::time_repeatable("live-event churn", run_live_churn);
    print_row("live-events", live_t, static_cast<double>(live_dispatched),
              "events/s");
    const auto [wakeup_t, wakeup] =
        bench::time_repeatable("wake-up churn", run_wakeup_churn);
    print_row("wake-up", wakeup_t, static_cast<double>(wakeup.dispatched),
              "events/s");

    constexpr std::uint64_t kPendingUniverse = 65536;  // cancel-storm depth
    constexpr std::uint64_t kRunningUniverse = 256;    // ~cluster node count
    constexpr int kWalkEvery = 64;  // ops between running-table walks
    const auto [hash_t, hash] =
        bench::time_repeatable("flat hash churn", [&] {
          return run_map_churn<util::FlatHashMap<std::uint64_t, double>>(
              map_ops, kPendingUniverse);
        });
    print_row("flat-hash", hash_t, static_cast<double>(map_ops), "ops/s");
    const auto [ordered_t, ordered] =
        bench::time_repeatable("flat ordered churn", [&] {
          return run_map_churn<util::FlatOrderedMap<std::uint64_t, double>,
                               kWalkEvery>(map_ops, kRunningUniverse);
        });
    print_row("flat-ordered", ordered_t, static_cast<double>(map_ops),
              "ops/s");

    bench::JsonWriter w = bench::begin_record("micro_kernel", 1);
    w.key("churn").begin_object();
    w.field("batches", batches).field("events_per_batch", events);
    w.field("seconds", churn_t);
    w.field("events_per_sec", churn_events / churn_t.median, 0);
    w.field("scheduled", churn.scheduled).field("cancelled", churn.cancelled);
    w.field("dispatched", churn.dispatched);
    w.field("heap_pushes", churn.heap_pushes);
    w.field("trace_checksum", bench::hex64(churn.checksum)).end_object();
    w.key("live_event_churn").begin_object();
    w.field("live_events", kLiveEvents).field("seconds", live_t);
    w.field("dispatched", live_dispatched);
    w.field("events_per_sec",
            static_cast<double>(live_dispatched) / live_t.median, 0);
    w.end_object();
    w.key("wakeup_churn").begin_object();
    w.field("live_events", kWakeupLiveEvents).field("seconds", wakeup_t);
    w.field("events_per_sec",
            static_cast<double>(wakeup.dispatched) / wakeup_t.median, 0);
    w.field("scheduled", wakeup.scheduled).field("cancelled", wakeup.cancelled);
    w.field("dispatched", wakeup.dispatched);
    w.field("heap_pushes", wakeup.heap_pushes);
    w.field("trace_checksum", bench::hex64(wakeup.checksum)).end_object();
    w.key("flat_hash").begin_object();
    w.field("ops", map_ops).field("universe", kPendingUniverse);
    w.field("seconds", hash_t);
    w.field("ops_per_sec", static_cast<double>(map_ops) / hash_t.median, 0);
    w.field("hits", hash.hits).field("final_size", hash.final_size);
    w.end_object();
    w.key("flat_ordered").begin_object();
    w.field("ops", map_ops).field("universe", kRunningUniverse);
    w.field("walk_every", kWalkEvery).field("seconds", ordered_t);
    w.field("ops_per_sec", static_cast<double>(map_ops) / ordered_t.median,
            0);
    w.field("hits", ordered.hits).field("final_size", ordered.final_size);
    w.end_object();
    w.field("deterministic_across_runs", true).end_object();
    bench::finish_record(w, out_path);
  });
}

// DES kernel hot-path benchmark and perf record.
//
// Drives one schedule–cancel–dispatch churn workload — batched arrivals
// spread over a wide horizon, a quarter of them cancelled before firing,
// callbacks injecting same-pass follow-ups, the event mix of a
// redundant-request campaign that schedules its arrivals far ahead
// (about 4 000 pending; with rrsim's arrival pump the perfbench
// workloads peak at 70 to 1 809) — through the production kernel
// (one binary heap of 24-byte entries over a pooled slab, inline
// callbacks, cancelled entries purged once they outnumber live events)
// and through an in-file replica of the seed tree's kernel (one binary
// heap of 40-byte entries, std::function callbacks, lazy-skip cancels).
// Verifies both kernels dispatch the identical event sequence in the
// same run that measures the speedup, benchmarks the flat job-table maps
// against the std containers they replaced, and writes everything to
// BENCH_kernel.json so future PRs have a perf trajectory.
//
//   ./micro_kernel [--batches=60] [--events=4000] [--map-ops=2000000]
//                  [--mode=both|new|legacy] [--out=BENCH_kernel.json]
//
// An equivalence violation (kernel trace or map-content divergence) is a
// hard failure: the process exits non-zero, and the perf_smoke ctest
// entry runs a small configuration on every test run.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "rrsim/des/simulation.h"
#include "rrsim/util/flat_map.h"
#include "rrsim/util/rng.h"

namespace {

using namespace rrsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Legacy kernel replica: the seed tree's event queue. One binary heap
// ordered by (time, priority, sequence) over the *entire* pending set,
// slots holding std::function callbacks (heap-allocating for any capture
// beyond the SBO), cancels retiring the slot and leaving the heap entry
// to be skipped lazily at pop. Kept in-file as the trace-equivalence
// reference for the production kernel and as its speed baseline.
class LegacyKernel {
 public:
  class EventHandle {
   public:
    EventHandle() = default;
    bool cancel() noexcept {
      if (kernel_ == nullptr) return false;
      LegacyKernel* k = kernel_;
      kernel_ = nullptr;
      return k->cancel(slot_, gen_);
    }

   private:
    friend class LegacyKernel;
    EventHandle(LegacyKernel* k, std::uint32_t slot, std::uint64_t gen)
        : kernel_(k), slot_(slot), gen_(gen) {}
    LegacyKernel* kernel_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint64_t gen_ = 0;
  };

  des::Time now() const noexcept { return now_; }
  std::uint64_t dispatched() const noexcept { return dispatched_; }

  EventHandle schedule_at(des::Time t, std::function<void()> cb,
                          des::Priority prio) {
    if (!(t >= now_)) {
      throw std::invalid_argument("legacy schedule_at: time in the past");
    }
    std::uint32_t idx;
    if (free_.empty()) {
      idx = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      idx = free_.back();
      free_.pop_back();
    }
    Slot& slot = slots_[idx];
    slot.callback = std::move(cb);
    slot.live = true;
    heap_.push_back(Entry{t, static_cast<int>(prio), next_seq_++, idx,
                          slot.generation});
    std::push_heap(heap_.begin(), heap_.end(), Compare{});
    return EventHandle(this, idx, slot.generation);
  }

  bool step() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Compare{});
      const Entry e = heap_.back();
      heap_.pop_back();
      Slot& slot = slots_[e.slot];
      if (!slot.live || slot.generation != e.gen) continue;  // stale
      now_ = e.time;
      std::function<void()> cb = std::move(slot.callback);
      retire(e.slot);
      ++dispatched_;
      cb();
      return true;
    }
    return false;
  }

  void run() {
    while (step()) {
    }
  }

  void run_until(des::Time t) {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Compare{});
      const Entry e = heap_.back();
      if (e.time > t) {  // put it back, we are done
        std::push_heap(heap_.begin(), heap_.end(), Compare{});
        break;
      }
      heap_.pop_back();
      Slot& slot = slots_[e.slot];
      if (!slot.live || slot.generation != e.gen) continue;
      now_ = e.time;
      std::function<void()> cb = std::move(slot.callback);
      retire(e.slot);
      ++dispatched_;
      cb();
    }
    if (t > now_) now_ = t;
  }

 private:
  struct Slot {
    std::function<void()> callback;
    std::uint64_t generation = 0;
    bool live = false;
  };
  struct Entry {
    des::Time time;
    int priority;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint64_t gen;
  };
  struct Compare {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  bool cancel(std::uint32_t idx, std::uint64_t gen) noexcept {
    Slot& slot = slots_[idx];
    if (!slot.live || slot.generation != gen) return false;
    slot.callback = nullptr;
    retire(idx);  // heap entry stays behind, skipped lazily
    return true;
  }

  void retire(std::uint32_t idx) noexcept {
    Slot& slot = slots_[idx];
    slot.live = false;
    ++slot.generation;
    free_.push_back(idx);
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  des::Time now_ = 0.0;
};

// ---------------------------------------------------------------------------
// Kernel churn workload. Each batch schedules a spread of events over a
// wide horizon, cancels a quarter of them, then advances half the
// horizon so roughly half the batch stays pending into the next one —
// steady-state churn, not a drain-from-empty toy. A fifth of the
// dispatched events schedule a short-fuse follow-up from inside their
// callback, exercising schedule-during-dispatch. The dispatch trace is
// folded into a checksum keyed by event id and the bit pattern of the
// dispatch timestamp, so the legacy/new comparison is bit-exact.

struct ChurnStats {
  double elapsed = 0.0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t checksum = 0;
  double ops_per_sec() const {
    return static_cast<double>(scheduled + cancelled + dispatched) / elapsed;
  }
};

void fold(ChurnStats& s, std::uint64_t id, double when) {
  std::uint64_t bits;
  std::memcpy(&bits, &when, sizeof bits);
  s.checksum = (s.checksum * 6364136223846793005ULL) ^ (id + bits);
}

template <typename Kernel>
ChurnStats run_churn(int batches, int events_per_batch, std::uint64_t seed) {
  constexpr double kHorizon = 5.0e4;
  const auto start = Clock::now();
  Kernel k;
  util::Rng rng(seed);
  ChurnStats s;
  std::uint64_t next_id = 1;
  std::vector<typename Kernel::EventHandle> handles;
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
  s.elapsed = seconds_since(start);
  return s;
}

// ---------------------------------------------------------------------------
// Job-table map churn: the access mix of the scheduler/gateway hot path
// (insert on submit, point lookups on grant/finish, erase on cancel) over
// a bounded id universe, run through each flat map and the std container
// it replaced. The op script is a pure function of the loop index, so
// every container sees the identical sequence; the observable aggregate
// (hits, value sum, final size) must match across the pair. The universe
// is sized to the table being modelled: the hash pair stands in for the
// pending/tracking tables (tens of thousands of ids touched across a
// campaign-length cancel storm), the ordered pair for the running-jobs
// table, whose population is bounded by cluster node count (order of a
// hundred) but which the scheduler *walks in key order* on every profile
// rebuild and dispatch pass — so the ordered churn interleaves a full
// iteration every IterateEvery ops.

struct MapStats {
  double elapsed = 0.0;
  std::int64_t ops = 0;
  std::uint64_t hits = 0;
  double value_sum = 0.0;
  std::size_t final_size = 0;
  double ops_per_sec() const { return static_cast<double>(ops) / elapsed; }
  bool agrees_with(const MapStats& o) const {
    return hits == o.hits && value_sum == o.value_sum &&
           final_size == o.final_size;
  }
};

bool map_insert(util::FlatHashMap<std::uint64_t, double>& m, std::uint64_t k,
                double v) {
  return m.try_emplace(k, v).inserted;
}
bool map_insert(util::FlatOrderedMap<std::uint64_t, double>& m,
                std::uint64_t k, double v) {
  return m.emplace(k, v).second;
}
template <typename StdMap>
bool map_insert(StdMap& m, std::uint64_t k, double v) {
  return m.try_emplace(k, v).second;
}

const double* map_find(const util::FlatHashMap<std::uint64_t, double>& m,
                       std::uint64_t k) {
  return m.find(k);
}
template <typename MapWithIterators>
const double* map_find(const MapWithIterators& m, std::uint64_t k) {
  const auto it = m.find(k);
  return it == m.end() ? nullptr : &it->second;
}

template <typename Map, int IterateEvery = 0>
MapStats run_map_churn(std::int64_t ops, std::uint64_t universe) {
  const auto start = Clock::now();
  Map m;
  MapStats s;
  s.ops = ops;
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
  s.elapsed = seconds_since(start);
  return s;
}

void print_kernel_row(const char* name, const ChurnStats& s) {
  std::printf("  %-14s %8.3f s  %9llu dispatched  %7llu cancelled  %12.0f "
              "events/s\n",
              name, s.elapsed, static_cast<unsigned long long>(s.dispatched),
              static_cast<unsigned long long>(s.cancelled), s.ops_per_sec());
}

void print_map_row(const char* name, const MapStats& s) {
  std::printf("  %-14s %8.3f s  %12.0f ops/s  (%llu hits, %zu resident)\n",
              name, s.elapsed, s.ops_per_sec(),
              static_cast<unsigned long long>(s.hits), s.final_size);
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
    const std::string mode = cli.get_string("mode", "both");
    const std::string out_path = cli.get_string("out", "BENCH_kernel.json");
    if (mode != "both" && mode != "new" && mode != "legacy") {
      throw std::invalid_argument("--mode must be both, new or legacy");
    }

    std::printf("=== micro_kernel - DES kernel hot-path throughput ===\n");
    std::printf(
        "schedule-cancel-dispatch churn (%d batches x %d events, 25%%\n"
        "cancelled, 20%% follow-up insertions) through the pooled-heap\n"
        "kernel and the binary-heap + std::function design it replaced;\n"
        "dispatch traces must be bit-identical. Then job-table map churn\n"
        "(%lld ops) through the flat maps and their std counterparts.\n\n",
        batches, events, static_cast<long long>(map_ops));

    constexpr std::uint64_t kSeed = 20260807;
    ChurnStats fresh, legacy;
    if (mode != "legacy") {
      fresh = run_churn<des::Simulation>(batches, events, kSeed);
      print_kernel_row("pooled", fresh);
    }
    if (mode != "new") {
      legacy = run_churn<LegacyKernel>(batches, events, kSeed);
      print_kernel_row("binary-heap", legacy);
    }
    const bool both = mode == "both";
    if (both) {
      // Behaviour-preservation contract, enforced in the measuring run:
      // same events dispatched, same order, same timestamps to the bit.
      if (fresh.checksum != legacy.checksum ||
          fresh.dispatched != legacy.dispatched ||
          fresh.cancelled != legacy.cancelled ||
          fresh.scheduled != legacy.scheduled) {
        throw std::runtime_error(
            "equivalence violation: pooled-heap kernel diverged from "
            "the binary-heap baseline");
      }
      std::printf("\npooled vs binary-heap: %.2fx  (traces "
                  "bit-identical)\n\n",
                  legacy.elapsed / fresh.elapsed);
    } else {
      std::printf("\n(single-kernel mode: equivalence not checked)\n\n");
    }

    constexpr std::uint64_t kPendingUniverse = 65536;  // cancel-storm depth
    constexpr std::uint64_t kRunningUniverse = 256;    // ~cluster node count
    constexpr int kWalkEvery = 64;  // ops between running-table walks
    const auto flat_hash = run_map_churn<
        util::FlatHashMap<std::uint64_t, double>>(map_ops, kPendingUniverse);
    print_map_row("flat-hash", flat_hash);
    // rrsim-lint-allow(unordered-container): the legacy baseline this
    // benchmark compares the flat tables against; results are timings.
    using LegacyMap = std::unordered_map<std::uint64_t, double>;
    const auto std_unordered =
        run_map_churn<LegacyMap>(map_ops, kPendingUniverse);
    print_map_row("unordered_map", std_unordered);
    const auto flat_ordered =
        run_map_churn<util::FlatOrderedMap<std::uint64_t, double>, kWalkEvery>(
            map_ops, kRunningUniverse);
    print_map_row("flat-ordered", flat_ordered);
    const auto std_ordered =
        run_map_churn<std::map<std::uint64_t, double>, kWalkEvery>(
            map_ops, kRunningUniverse);
    print_map_row("std::map", std_ordered);
    if (!flat_hash.agrees_with(std_unordered) ||
        !flat_ordered.agrees_with(std_ordered)) {
      throw std::runtime_error(
          "equivalence violation: flat map diverged from its std "
          "counterpart under the same op script");
    }

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      throw std::runtime_error("cannot write " + out_path);
    }
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"micro_kernel\",\n");
    bench::write_json_env_fields(f, 1);
    std::fprintf(f,
                 "  \"batches\": %d,\n"
                 "  \"events_per_batch\": %d,\n"
                 "  \"mode\": \"%s\",\n",
                 batches, events, mode.c_str());
    if (mode != "legacy") {
      std::fprintf(f,
                   "  \"kernel_pooled_seconds\": %.4f,\n"
                   "  \"kernel_pooled_events_per_sec\": %.0f,\n"
                   "  \"kernel_pooled_dispatched\": %llu,\n",
                   fresh.elapsed, fresh.ops_per_sec(),
                   static_cast<unsigned long long>(fresh.dispatched));
    }
    if (mode != "new") {
      std::fprintf(f,
                   "  \"kernel_binary_heap_seconds\": %.4f,\n"
                   "  \"kernel_binary_heap_events_per_sec\": %.0f,\n",
                   legacy.elapsed, legacy.ops_per_sec());
    }
    if (both) {
      std::fprintf(f,
                   "  \"kernel_speedup_vs_binary_heap\": %.4f,\n"
                   "  \"kernel_traces_bit_identical\": true,\n",
                   legacy.elapsed / fresh.elapsed);
    }
    std::fprintf(f,
                 "  \"map_ops\": %lld,\n"
                 "  \"flat_hash_ops_per_sec\": %.0f,\n"
                 "  \"unordered_map_ops_per_sec\": %.0f,\n"
                 "  \"flat_hash_speedup\": %.4f,\n"
                 "  \"flat_ordered_ops_per_sec\": %.0f,\n"
                 "  \"std_map_ops_per_sec\": %.0f,\n"
                 "  \"flat_ordered_speedup\": %.4f,\n"
                 "  \"maps_equivalent\": true\n"
                 "}\n",
                 static_cast<long long>(map_ops), flat_hash.ops_per_sec(),
                 std_unordered.ops_per_sec(),
                 std_unordered.elapsed / flat_hash.elapsed,
                 flat_ordered.ops_per_sec(), std_ordered.ops_per_sec(),
                 std_ordered.elapsed / flat_ordered.elapsed);
    std::fclose(f);
    std::printf("\nperf record written to %s\n", out_path.c_str());
  });
}

// Memoization of deterministically generated workload traces.
//
// Sweep campaigns use common random numbers: every point of a figure
// (redundancy degree N, fraction p, scheduler, ...) replays the *same*
// job stream, because the stream is produced from a seed-derived Rng whose
// draws do not depend on the swept parameter. Regenerating that stream at
// every sweep point is pure waste — for the Lublin model it is tens of
// thousands of gamma/hyper-gamma samples per cluster per point. The cache
// keys a generated (and estimator-applied) stream by everything that
// determines it bit-exactly — model parameters, cluster size, horizon,
// the exact Rng states, and the estimator — and hands out shared read-only
// snapshots, so each distinct trace is generated once per process no
// matter how many sweep points or worker threads consume it.
//
// Five entry kinds share one store:
//   - whole streams (runs with stream_window == 0; ~32 bytes/job),
//   - generator checkpoint tables (windowed drivers; ~48 bytes/window —
//     see stream_window.h), which let a sweep point seek to window k and
//     re-materialize it in O(window) instead of holding 10^7 specs
//     resident or regenerating from t = 0,
//   - substream draw segments (~32 bytes),
//   - per-cluster load calibrations (~24 bytes), so a calibrated sweep
//     pays each cluster's Monte-Carlo work estimate once per process, and
//   - window spools (windowed SWF replay; resident cost is the spool's
//     in-memory index only — the records live in an unlinked temp file,
//     see window_spool.h), so a grid sweep replays each trace file once
//     no matter how many points consume it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>

#include "rrsim/util/rng.h"
#include "rrsim/workload/estimators.h"
#include "rrsim/workload/lublin.h"
#include "rrsim/workload/stream_window.h"
#include "rrsim/workload/window_spool.h"

namespace rrsim::workload {

/// Everything that determines a generated job stream bit-exactly. Two keys
/// compare equal iff generation would produce identical streams: the model
/// parameters and horizon are compared on their exact double bits, and the
/// Rng fingerprints pin the entire future output of the generators (see
/// util::Rng::fingerprint).
struct TraceKey {
  LublinParams params;
  int max_nodes = 1;
  double horizon = 0.0;
  std::pair<std::uint64_t, std::uint64_t> stream_rng{0, 0};
  std::pair<std::uint64_t, std::uint64_t> est_rng{0, 0};
  /// Estimator identity: name() alone does not always encode the
  /// estimator's parameters (UniformFactorEstimator's does not), so the
  /// mean factor rides along to disambiguate.
  std::string estimator_name;
  double estimator_mean_factor = 1.0;

  /// Convenience constructor from the live objects at the generation site.
  static TraceKey of(const LublinParams& params, int max_nodes,
                     double horizon, const util::Rng& stream_rng,
                     const util::Rng& est_rng,
                     const RuntimeEstimator& estimator) {
    TraceKey k;
    k.params = params;
    k.max_nodes = max_nodes;
    k.horizon = horizon;
    k.stream_rng = stream_rng.fingerprint();
    k.est_rng = est_rng.fingerprint();
    k.estimator_name = estimator.name();
    k.estimator_mean_factor = estimator.mean_factor();
    return k;
  }

  /// Flat byte encoding of the key (exact double bits, no canonicalisation
  /// of NaNs/-0.0 — "identical bits" is precisely the contract). Used as
  /// the hash-map key.
  std::string bytes() const;
};

/// Where the per-job user/redundancy substreams land after one cluster's
/// segment of draws (see core::detail::resolve_inputs): the exact
/// generator fingerprints the *next* cluster's draws start from.
struct DrawSegment {
  std::pair<std::uint64_t, std::uint64_t> users_end{0, 0};
  std::pair<std::uint64_t, std::uint64_t> redundancy_end{0, 0};
};

/// Everything that determines a DrawSegment bit-exactly: the substream
/// start states, the number of per-job draws, and the draw shapes. The
/// redundancy *fraction* is deliberately absent — Rng::chance consumes
/// exactly one next_u64 regardless of p, so the end state is independent
/// of the swept fraction, which is precisely what lets fraction sweeps
/// reuse one fast-forward (util_rng_test pins that invariant). The user
/// count *is* present: Rng::below's rejection loop can consume a
/// value-dependent number of draws.
struct DrawSegmentKey {
  std::pair<std::uint64_t, std::uint64_t> users_start{0, 0};
  std::pair<std::uint64_t, std::uint64_t> redundancy_start{0, 0};
  std::uint64_t count = 0;
  std::uint64_t users_per_cluster = 0;
  /// False for scheme NONE, where the redundancy substream never advances
  /// (the arrival pump skips the chance() call).
  bool scheme_active = false;

  /// Flat byte encoding, same contract as TraceKey::bytes().
  std::string bytes() const;
};

/// One cluster's load calibration (see core::detail::resolve_clusters): the
/// mean inter-arrival time that offers the target load, and the
/// calibration substream's fingerprint after this cluster's Monte-Carlo
/// draws — where the next cluster's draws begin.
struct Calibration {
  double mean_interarrival = 0.0;
  std::pair<std::uint64_t, std::uint64_t> rng_end{0, 0};
};

/// Everything that determines a Calibration bit-exactly: the model
/// parameters (the node/runtime shape decides the mean work; compared on
/// exact double bits like TraceKey), the cluster size, the target load,
/// the sample count, and the calibration substream's state where this
/// cluster's draws begin. Gamma rejection sampling consumes a
/// data-dependent number of draws, so calibrations chain: each entry's
/// rng_end is the next cluster's rng_start, and runs sharing a seed and
/// cluster shape share their common prefix of clusters.
struct CalibrationKey {
  LublinParams params;
  int max_nodes = 1;
  double target_utilization = 0.0;
  int samples = 0;
  std::pair<std::uint64_t, std::uint64_t> rng_start{0, 0};

  /// Flat byte encoding, same contract as TraceKey::bytes().
  std::string bytes() const;
};

/// Everything that determines a spooled SWF window store bit-exactly: the
/// file path, the filters applied while loading (cluster size and horizon
/// — see core::detail::load_swf_stream), and the window the spool was
/// chunked at. The path is taken at face value; callers replaying a file
/// that changed on disk mid-process get whatever was spooled first, the
/// same staleness contract as any memo keyed by name.
struct SpoolKey {
  std::string path;
  int max_nodes = 1;
  double horizon = 0.0;
  std::size_t window = 0;

  /// Flat byte encoding, same contract as TraceKey::bytes().
  std::string bytes() const;
};

/// Process-wide, thread-safe memo of the five entry kinds above.
///
/// Values are shared immutable snapshots: consumers must treat them as
/// read-only and copy before mutating (experiment drivers copy anyway,
/// because submission-time bookkeeping annotates specs per run). Lookups
/// are single-flight: the first lookup of a key publishes an in-flight
/// entry and runs the supplied generator *outside* the cache lock, and
/// concurrent lookups of that key wait for its result and count as hits,
/// so misses equal computations for any number of threads. A generator
/// that throws removes its entry (the next lookup computes afresh), and
/// the lookups waiting on it rethrow its exception. Entries live until
/// clear().
class TraceCache {
 public:
  using StreamPtr = std::shared_ptr<const JobStream>;
  using CheckpointPtr = std::shared_ptr<const CheckpointedTrace>;
  // rrsim-lint-allow(std-function-member): invoked once per cache miss
  // (trace generation, milliseconds of work); the JobStream() signature
  // rules out InlineFunction (void() only).
  using Generator = std::function<JobStream()>;
  // rrsim-lint-allow(std-function-member): same once-per-miss economics as
  // Generator, for checkpoint-table construction (one full scan pass).
  using CheckpointBuilder = std::function<CheckpointedTrace()>;
  // rrsim-lint-allow(std-function-member): once-per-miss again — a miss
  // replays one cluster's O(jobs) substream fast-forward.
  using DrawAdvancer = std::function<DrawSegment()>;
  // rrsim-lint-allow(std-function-member): once-per-miss — a miss runs
  // one cluster's Monte-Carlo calibration (thousands of job samples).
  using Calibrator = std::function<Calibration()>;
  using SpoolPtr = std::shared_ptr<const WindowSpool>;
  // rrsim-lint-allow(std-function-member): once-per-miss — a miss reads
  // and spools one whole SWF file.
  using SpoolBuilder = std::function<WindowSpool()>;

  TraceCache() = default;
  TraceCache(const TraceCache&) = delete;
  TraceCache& operator=(const TraceCache&) = delete;

  /// Returns the cached stream for `key`, generating (and publishing) it
  /// via `generate` on a miss.
  StreamPtr get_or_generate(const TraceKey& key, const Generator& generate);

  /// Returns the cached checkpoint table for (`key`, `window`), building
  /// (and publishing) it via `build` on a miss. Tables for different
  /// windows of the same trace are distinct entries. Throws
  /// std::invalid_argument on window == 0.
  CheckpointPtr get_or_build_checkpoints(const TraceKey& key,
                                         std::size_t window,
                                         const CheckpointBuilder& build);

  /// Returns the memoized substream end fingerprints for `key`, computing
  /// them via `advance` on a miss. This is what keeps input resolution
  /// O(window) for repeated windowed sweep points: without it every run
  /// would fast-forward the user/redundancy substreams one draw per job
  /// (O(total jobs)) even when the checkpoint table itself is a cache hit.
  /// Entries are ~32 bytes.
  DrawSegment get_or_advance_draws(const DrawSegmentKey& key,
                                   const DrawAdvancer& advance);

  /// Returns the memoized calibration for `key`, running `calibrate` on a
  /// miss. This is what keeps a calibrated run's set-up from repeating one
  /// Monte-Carlo work estimate per cluster on every call: repeated sweep
  /// points, replications sharing a seed, and cluster-count sweeps over a
  /// common prefix seek straight to each cluster's result. Entries are
  /// ~24 bytes.
  Calibration get_or_calibrate(const CalibrationKey& key,
                               const Calibrator& calibrate);

  /// Returns the cached window spool for `key`, building (and publishing)
  /// it via `build` on a miss. The entry counts the spool's resident
  /// index bytes (payload_bytes) toward resident_bytes(), not its on-disk
  /// record bytes; clear() drops the index and closes the unlinked backing
  /// file once the last consumer's shared_ptr releases. Throws
  /// std::invalid_argument on key.window == 0.
  SpoolPtr get_or_build_spool(const SpoolKey& key, const SpoolBuilder& build);

  /// Drops all entries and zeroes the hit/miss counters. Snapshots that
  /// consumers hold stay valid; a computation in flight still returns its
  /// result to the lookups waiting on it but publishes nothing.
  void clear();

  // --- Statistics (cumulative since last clear()) ------------------------
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t checkpoint_hits() const;
  std::uint64_t checkpoint_misses() const;
  std::uint64_t draw_hits() const;
  std::uint64_t draw_misses() const;
  std::uint64_t calibration_hits() const;
  std::uint64_t calibration_misses() const;
  std::uint64_t spool_hits() const;
  std::uint64_t spool_misses() const;
  std::size_t entries() const;
  /// Payload bytes of the completed entries (not map overhead).
  std::size_t resident_bytes() const;

  /// The process-wide instance every experiment driver consults.
  static TraceCache& global();

 private:
  /// One cached payload, of the kind the key's leading tag byte names.
  using Payload = std::variant<StreamPtr, CheckpointPtr, DrawSegment,
                               Calibration, SpoolPtr>;

  /// Lookups of one entry kind since the last clear().
  struct Tally {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  // rrsim-lint-allow(unordered-container): lookup/insert/erase only —
  // never iterated, so the unspecified bucket order cannot reach any
  // output. Each entry is ready once its first lookup's computation
  // completes; until then, lookups of the key wait on it.
  using Map = std::unordered_map<std::string, std::shared_future<Payload>>;

  /// The lookup every get_or_* shares: returns the payload cached under
  /// `key` (a hit, waiting if it is still being computed), or publishes an
  /// in-flight entry and runs `make` outside the lock (a miss), counting
  /// the lookup in `tally` either way. Defined, and only instantiated, in
  /// the .cpp.
  template <typename Value, typename Make>
  Value memoize(std::string key, Tally& tally, const Make& make);

  /// Reads one statistics counter under the lock.
  std::uint64_t read_counter(const std::uint64_t& counter) const;

  mutable std::mutex mu_;
  /// Bumped by clear(), so a computation that started before it neither
  /// counts its bytes nor erases an entry a later lookup published.
  std::uint64_t generation_ = 0;
  std::size_t resident_bytes_ = 0;
  Tally streams_;
  Tally checkpoints_;
  Tally draws_;
  Tally calibrations_;
  Tally spools_;
  Map map_;
};

}  // namespace rrsim::workload

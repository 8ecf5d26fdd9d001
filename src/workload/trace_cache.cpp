#include "rrsim/workload/trace_cache.h"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <variant>

namespace rrsim::workload {

namespace {

// Leading tag byte of the map key, so entries never collide across kinds.
constexpr char kStreamTag = 'S';
constexpr char kCheckpointTag = 'C';
constexpr char kDrawTag = 'D';
constexpr char kCalibrationTag = 'L';
constexpr char kSpoolTag = 'P';

void append_u64(std::string& out, std::uint64_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

void append_double(std::string& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

// Field-by-field (never memcpy of the struct): padding bytes are
// indeterminate and would make equal keys compare unequal.
void append_params(std::string& out, const LublinParams& params) {
  append_double(out, params.arrival_alpha);
  append_double(out, params.arrival_beta);
  append_double(out, params.serial_prob);
  append_double(out, params.pow2_prob);
  append_double(out, params.ulow);
  append_double(out, params.uprob);
  append_double(out, params.umed_offset);
  append_double(out, params.rt_a1);
  append_double(out, params.rt_b1);
  append_double(out, params.rt_a2);
  append_double(out, params.rt_b2);
  append_double(out, params.rt_pa);
  append_double(out, params.rt_pb);
  append_double(out, params.rt_log_base);
  append_double(out, params.min_runtime);
  append_double(out, params.max_runtime);
}

// Budget charge of each payload kind: resident payload bytes, not map
// overhead.
std::size_t payload_bytes(const TraceCache::StreamPtr& stream) {
  return stream->size() * sizeof(JobSpec);
}
std::size_t payload_bytes(const TraceCache::CheckpointPtr& table) {
  return table->payload_bytes();
}
std::size_t payload_bytes(const DrawSegment&) { return sizeof(DrawSegment); }
std::size_t payload_bytes(const Calibration&) { return sizeof(Calibration); }
std::size_t payload_bytes(const TraceCache::SpoolPtr& spool) {
  return spool->payload_bytes();
}

}  // namespace

std::string TraceKey::bytes() const {
  std::string out;
  out.reserve(30 * sizeof(std::uint64_t) + estimator_name.size());
  append_params(out, params);
  append_u64(out, static_cast<std::uint64_t>(max_nodes));
  append_double(out, horizon);
  append_u64(out, stream_rng.first);
  append_u64(out, stream_rng.second);
  append_u64(out, est_rng.first);
  append_u64(out, est_rng.second);
  append_double(out, estimator_mean_factor);
  out += estimator_name;
  return out;
}

std::string DrawSegmentKey::bytes() const {
  std::string out;
  out.reserve(6 * sizeof(std::uint64_t) + 1);
  append_u64(out, users_start.first);
  append_u64(out, users_start.second);
  append_u64(out, redundancy_start.first);
  append_u64(out, redundancy_start.second);
  append_u64(out, count);
  append_u64(out, users_per_cluster);
  out.push_back(scheme_active ? '\1' : '\0');
  return out;
}

std::string CalibrationKey::bytes() const {
  std::string out;
  out.reserve(21 * sizeof(std::uint64_t));
  append_params(out, params);
  append_u64(out, static_cast<std::uint64_t>(max_nodes));
  append_double(out, target_utilization);
  append_u64(out, static_cast<std::uint64_t>(samples));
  append_u64(out, rng_start.first);
  append_u64(out, rng_start.second);
  return out;
}

std::string SpoolKey::bytes() const {
  std::string out;
  out.reserve(3 * sizeof(std::uint64_t) + path.size());
  append_u64(out, static_cast<std::uint64_t>(max_nodes));
  append_double(out, horizon);
  append_u64(out, window);
  out += path;
  return out;
}

template <typename Value, typename Make>
Value TraceCache::memoize(std::string key, Tally& tally, const Make& make) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_) {
      // Count the lookup as a miss so disabled-mode stats still show how
      // much recomputation the cache would have absorbed.
      ++tally.misses;
    } else if (const auto it = map_.find(key); it != map_.end()) {
      ++tally.hits;
      touch_locked(it);
      return std::get<Value>(it->second.payload);
    } else {
      ++tally.misses;
    }
  }
  // Compute outside the lock: a miss costs milliseconds or more, and other
  // threads should neither wait on us nor serialize their own misses.
  // Threads racing on one key both compute; computation is deterministic,
  // so publish_locked adopts the first result and the duplicate is
  // bit-identical.
  Value value = make();
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return value;
  Entry entry;
  entry.bytes = payload_bytes(value);
  entry.payload = std::move(value);
  return std::get<Value>(
      publish_locked(std::move(key), std::move(entry)).payload);
}

TraceCache::StreamPtr TraceCache::get_or_generate(const TraceKey& key,
                                                  const Generator& generate) {
  return memoize<StreamPtr>(kStreamTag + key.bytes(), streams_, [&] {
    return std::make_shared<const JobStream>(generate());
  });
}

TraceCache::CheckpointPtr TraceCache::get_or_build_checkpoints(
    const TraceKey& key, std::size_t window, const CheckpointBuilder& build) {
  if (window == 0) throw std::invalid_argument("window must be > 0");
  std::string k = kCheckpointTag + key.bytes();
  append_u64(k, window);
  return memoize<CheckpointPtr>(std::move(k), checkpoints_, [&] {
    return std::make_shared<const CheckpointedTrace>(build());
  });
}

DrawSegment TraceCache::get_or_advance_draws(const DrawSegmentKey& key,
                                             const DrawAdvancer& advance) {
  return memoize<DrawSegment>(kDrawTag + key.bytes(), draws_, advance);
}

Calibration TraceCache::get_or_calibrate(const CalibrationKey& key,
                                         const Calibrator& calibrate) {
  return memoize<Calibration>(kCalibrationTag + key.bytes(), calibrations_,
                              calibrate);
}

TraceCache::SpoolPtr TraceCache::get_or_build_spool(const SpoolKey& key,
                                                    const SpoolBuilder& build) {
  if (key.window == 0) throw std::invalid_argument("window must be > 0");
  // Racing duplicates each spool into their own unlinked temp file; the
  // loser's storage is reclaimed when its shared_ptr dies.
  return memoize<SpoolPtr>(kSpoolTag + key.bytes(), spools_, [&] {
    return std::make_shared<const WindowSpool>(build());
  });
}

TraceCache::Entry TraceCache::publish_locked(std::string key, Entry entry) {
  const auto [it, inserted] = map_.emplace(std::move(key), std::move(entry));
  if (!inserted) {
    // A racing thread published first. Generation is deterministic, so
    // the two payloads are bit-identical; adopt the published one so all
    // consumers share a single buffer. Treat the reuse as a touch.
    touch_locked(it);
    return it->second;
  }
  lru_.push_back(&it->first);
  it->second.lru = std::prev(lru_.end());
  resident_bytes_ += it->second.bytes;
  // Copy the payload out BEFORE evicting: the fresh entry sits at the
  // recency back, so colder entries go first, but a budget smaller than
  // this one payload evicts the entry itself — eviction may invalidate
  // `it`, and the returned shared_ptrs (not the map node) are what keep
  // the payload alive for the caller.
  Entry published = it->second;
  evict_to_budget_locked();
  return published;
}

void TraceCache::touch_locked(Map::iterator it) {
  lru_.splice(lru_.end(), lru_, it->second.lru);
}

void TraceCache::evict_to_budget_locked() {
  if (byte_budget_ == 0) return;
  while (resident_bytes_ > byte_budget_ && !lru_.empty()) {
    const auto it = map_.find(*lru_.front());
    lru_.pop_front();
    // Every lru_ node should name a live map entry; if the invariant ever
    // drifts, skip the stale node rather than dereference end().
    if (it == map_.end()) continue;
    resident_bytes_ -= it->second.bytes;
    map_.erase(it);
  }
}

void TraceCache::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = on;
}

bool TraceCache::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

void TraceCache::set_byte_budget(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  byte_budget_ = bytes;
  evict_to_budget_locked();
}

std::size_t TraceCache::byte_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return byte_budget_;
}

void TraceCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  resident_bytes_ = 0;
  streams_ = checkpoints_ = draws_ = calibrations_ = spools_ = Tally{};
}

std::uint64_t TraceCache::read_counter(const std::uint64_t& counter) const {
  std::lock_guard<std::mutex> lock(mu_);
  return counter;
}

std::uint64_t TraceCache::hits() const { return read_counter(streams_.hits); }
std::uint64_t TraceCache::misses() const {
  return read_counter(streams_.misses);
}
std::uint64_t TraceCache::checkpoint_hits() const {
  return read_counter(checkpoints_.hits);
}
std::uint64_t TraceCache::checkpoint_misses() const {
  return read_counter(checkpoints_.misses);
}
std::uint64_t TraceCache::draw_hits() const {
  return read_counter(draws_.hits);
}
std::uint64_t TraceCache::draw_misses() const {
  return read_counter(draws_.misses);
}
std::uint64_t TraceCache::calibration_hits() const {
  return read_counter(calibrations_.hits);
}
std::uint64_t TraceCache::calibration_misses() const {
  return read_counter(calibrations_.misses);
}
std::uint64_t TraceCache::spool_hits() const {
  return read_counter(spools_.hits);
}
std::uint64_t TraceCache::spool_misses() const {
  return read_counter(spools_.misses);
}

std::size_t TraceCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::size_t TraceCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

TraceCache& TraceCache::global() {
  static TraceCache instance;
  return instance;
}

}  // namespace rrsim::workload

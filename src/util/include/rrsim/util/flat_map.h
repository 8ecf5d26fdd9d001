// Flat associative containers for the per-job/per-event hot paths.
//
// The kernel overhaul replaced every tree/hash map on the schedule →
// dispatch path with one of two cache-friendly layouts:
//
//  * FlatHashMap    — open-addressing hash map (linear probing, backward-
//                     shift deletion, power-of-two capacity). One flat
//                     array of slots, no per-node allocation, no
//                     tombstones. Iteration order is unspecified; use it
//                     only where iteration order cannot reach results
//                     (id -> slot indexes, tracking tables).
//  * FlatOrderedMap — sorted vector keyed by K. Iteration is key order,
//                     which the profile-rebuild paths depend on for
//                     bit-identical floating-point reservation order.
//                     O(log n) find, O(n) insert/erase — intended for
//                     small populations (the running set is bounded by
//                     the node count).
//
// Both keep their storage across clear(), so a reused scheduler or
// gateway runs its next experiment with warm arenas.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rrsim::util {

/// SplitMix64 finalizer: integer ids here are sequential (job ids,
/// replica ids, user ids), which is the worst case for power-of-two
/// masking without mixing.
inline std::uint64_t hash_mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Default hasher for FlatHashMap: mixes any integral key.
struct IntHash {
  template <typename K>
  std::uint64_t operator()(K key) const noexcept {
    return hash_mix(static_cast<std::uint64_t>(key));
  }
};

/// Open-addressing hash map with linear probing and backward-shift
/// deletion. V must be default-constructible and move-assignable (empty
/// slots hold a default V); K must be an integral id type.
template <typename K, typename V, typename Hash = IntHash>
class FlatHashMap {
 public:
  struct Slot {
    K key;
    V value;
  };

  FlatHashMap() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Drops all entries but keeps the slot array allocated.
  void clear() noexcept {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) {
        slots_[i].value = V{};  // release resources held by values
        used_[i] = 0;
      }
    }
    size_ = 0;
  }

  /// Pre-sizes the table for `n` entries without rehashing on the way.
  void reserve(std::size_t n) {
    std::size_t want = 16;
    while (want * 3 / 4 < n) want *= 2;
    if (want > slots_.size()) rehash(want);
  }

  V* find(const K& key) noexcept {
    if (slots_.empty()) return nullptr;
    const std::size_t idx = find_index(key);
    return idx == npos ? nullptr : &slots_[idx].value;
  }
  const V* find(const K& key) const noexcept {
    return const_cast<FlatHashMap*>(this)->find(key);
  }

  bool contains(const K& key) const noexcept { return find(key) != nullptr; }

  /// Returns the value for `key`, which must be present.
  V& at(const K& key) {
    V* v = find(key);
    if (v == nullptr) throw std::out_of_range("FlatHashMap::at: missing key");
    return *v;
  }
  const V& at(const K& key) const {
    return const_cast<FlatHashMap*>(this)->at(key);
  }

  /// Inserts default V if absent (std::map::operator[] semantics).
  V& operator[](const K& key) { return *try_emplace(key, V{}).value; }

  struct InsertResult {
    V* value;
    bool inserted;
  };

  /// Inserts (key, value) if the key is absent; returns the slot either
  /// way. Pointers are invalidated by any later insert or erase.
  InsertResult try_emplace(const K& key, V value) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? 16 : slots_.size() * 2);
    }
    std::size_t i = Hash{}(key)&mask_;
    for (;;) {
      if (!used_[i]) {
        used_[i] = 1;
        slots_[i].key = key;
        slots_[i].value = std::move(value);
        ++size_;
        return {&slots_[i].value, true};
      }
      if (slots_[i].key == key) return {&slots_[i].value, false};
      i = (i + 1) & mask_;
    }
  }

  /// Removes `key` if present. Backward-shift deletion: later entries of
  /// the probe chain move up, so lookups never scan tombstones.
  bool erase(const K& key) noexcept {
    if (slots_.empty()) return false;
    std::size_t i = find_index(key);
    if (i == npos) return false;
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mask_; used_[j]; j = (j + 1) & mask_) {
      const std::size_t home = Hash{}(slots_[j].key) & mask_;
      // `j` may fill the hole iff its home position does not lie strictly
      // between hole (exclusive) and j (inclusive) along the probe order.
      const std::size_t dist_home = (j - home) & mask_;
      const std::size_t dist_hole = (j - hole) & mask_;
      if (dist_home >= dist_hole) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        hole = j;
      }
    }
    slots_[hole].value = V{};
    used_[hole] = 0;
    --size_;
    return true;
  }

  /// Visits every (key, value) pair in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) fn(slots_[i].key, slots_[i].value);
    }
  }

  /// Bytes of backing storage held (capacity-based: storage survives
  /// clear(), so this is the table's high-water footprint).
  std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot) + used_.capacity();
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t find_index(const K& key) const noexcept {
    std::size_t i = Hash{}(key)&mask_;
    while (used_[i]) {
      if (slots_[i].key == key) return i;
      i = (i + 1) & mask_;
    }
    return npos;
  }

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    slots_.clear();
    slots_.resize(new_cap);
    used_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_used[i]) {
        try_emplace(old_slots[i].key, std::move(old_slots[i].value));
      }
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Sorted-vector map: key-ordered iteration with contiguous storage.
/// Intended for small populations mutated at event granularity (the
/// running set), where O(n) insert/erase is cheaper in practice than a
/// tree's pointer chasing and the key-ordered walk must stay bit-exact.
template <typename K, typename V>
class FlatOrderedMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() noexcept { return entries_.begin(); }
  iterator end() noexcept { return entries_.end(); }
  const_iterator begin() const noexcept { return entries_.begin(); }
  const_iterator end() const noexcept { return entries_.end(); }

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  void clear() noexcept { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  iterator find(const K& key) noexcept {
    const iterator it = lower_bound(key);
    return (it != entries_.end() && it->first == key) ? it : entries_.end();
  }
  const_iterator find(const K& key) const noexcept {
    return const_cast<FlatOrderedMap*>(this)->find(key);
  }

  V& at(const K& key) {
    const iterator it = find(key);
    if (it == entries_.end()) {
      throw std::out_of_range("FlatOrderedMap::at: missing key");
    }
    return it->second;
  }
  const V& at(const K& key) const {
    return const_cast<FlatOrderedMap*>(this)->at(key);
  }

  /// Inserts (key, value) if absent; returns (iterator, inserted).
  std::pair<iterator, bool> emplace(const K& key, V value) {
    const iterator it = lower_bound(key);
    if (it != entries_.end() && it->first == key) return {it, false};
    return {entries_.emplace(it, key, std::move(value)), true};
  }

  iterator erase(iterator it) { return entries_.erase(it); }
  bool erase(const K& key) {
    const iterator it = find(key);
    if (it == entries_.end()) return false;
    entries_.erase(it);
    return true;
  }

  /// Bytes of backing storage held (capacity-based high-water footprint).
  std::size_t memory_bytes() const noexcept {
    return entries_.capacity() * sizeof(value_type);
  }

 private:
  iterator lower_bound(const K& key) noexcept {
    std::size_t lo = 0, hi = entries_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (entries_[mid].first < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return entries_.begin() + static_cast<std::ptrdiff_t>(lo);
  }

  std::vector<value_type> entries_;
};

}  // namespace rrsim::util

// Hash-keyed LRU caches for the serving layer.
//
// ContentLru maps a 64-bit hash of a key string -> Value with true LRU
// eviction (std::list recency order + hash index, O(1) per operation) and a
// key-string guard: every entry stores the key bytes it was inserted under,
// and a lookup whose hash matches but whose key differs is treated as a
// miss (and counted) instead of silently serving a colliding entry — the
// same fail-loud posture the result store takes on spec-hash collisions.
// So correctness never depends on the hash. The server hashes keys with
// std::hash<std::string_view> (8 bytes per step in libstdc++); the keys
// live only in memory, so the hash need not be stable across builds the
// way core/content_hash.h's FNV-1a is. Thread-safe; values are returned by
// copy so a concurrent eviction can never invalidate a served response.
//
// Two instantiations serve the server loop:
//   * ResponseCache  (Value = CachedSolve): the request -> response cache.
//     Keyed by the full request identity (the workload's identity bytes +
//     engine + seed + y_limit + budget, deadline excluded — see
//     serve/protocol.h); a hit is bit-identical to the cold solve because
//     the cached fields are exactly the deterministic part of the response
//     (schedule CSV, makespan, evals, steps).
//   * the server's parsed-body cache (Value = the parsed workload with its
//     identity bytes), keyed by the raw workload document, so repeated
//     bodies skip the parse and the identity build even when budget or
//     engine differ.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace sehc {

template <typename Value>
class ContentLru {
 public:
  /// `capacity` == 0 disables the cache (every lookup misses, inserts are
  /// dropped); otherwise at most `capacity` entries are retained.
  explicit ContentLru(std::size_t capacity) : capacity_(capacity) {}

  /// The cached value for (hash, canonical), or nullopt. A hit refreshes
  /// the entry's recency.
  std::optional<Value> lookup(std::uint64_t hash,
                              const std::string& canonical) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(hash);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    if (it->second->canonical != canonical) {
      // 64-bit hash collision between distinct canonical strings: refuse to
      // serve the wrong entry. insert() will overwrite it.
      ++collisions_;
      ++misses_;
      return std::nullopt;
    }
    entries_.splice(entries_.begin(), entries_, it->second);
    ++hits_;
    return it->second->value;
  }

  /// Inserts (or overwrites) the entry, evicting the least recently used
  /// one when full.
  void insert(std::uint64_t hash, std::string canonical, Value value) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ == 0) return;
    auto it = index_.find(hash);
    if (it != index_.end()) {
      it->second->canonical = std::move(canonical);
      it->second->value = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    if (entries_.size() >= capacity_) {
      index_.erase(entries_.back().hash);
      entries_.pop_back();
      ++evictions_;
    }
    entries_.push_front(Entry{hash, std::move(canonical), std::move(value)});
    index_[hash] = entries_.begin();
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }
  std::uint64_t hits() const { return counter(hits_); }
  std::uint64_t misses() const { return counter(misses_); }
  std::uint64_t evictions() const { return counter(evictions_); }
  std::uint64_t collisions() const { return counter(collisions_); }

  /// Hit fraction over all lookups (0 before any lookup).
  double hit_rate() const {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
  }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::string canonical;
    Value value;
  };

  std::uint64_t counter(const std::uint64_t& c) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return c;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> entries_;  // front = most recently used
  std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator>
      index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t collisions_ = 0;
};

/// The deterministic part of a solved response — exactly what a cache hit
/// must reproduce bit-identically. Volatile accounting (queue_ms, solve_ms,
/// cache_hit) is recomputed per request.
struct CachedSolve {
  double makespan = 0.0;
  std::uint64_t evals = 0;
  std::uint64_t steps = 0;
  std::string schedule_csv;
};

using ResponseCache = ContentLru<CachedSolve>;

}  // namespace sehc

// Hash-keyed LRU caches for the serving layer.
//
// ContentLru maps a 64-bit hash of a key -> Value with true LRU eviction
// (std::list recency order + hash index, O(1) per operation) and a key
// guard: every entry stores the key it was inserted under, and a lookup
// whose hash matches but whose key differs is treated as a miss (and
// counted) instead of silently serving a colliding entry — the same
// fail-loud posture the result store takes on spec-hash collisions. So
// correctness never depends on the hash. The server hashes keys with
// key_hash64 (core/content_hash.h, 64 bytes per step); the keys live only
// in memory, so the hash need not be stable across builds the way FNV-1a
// is. Thread-safe; values are returned by copy so a concurrent eviction
// can never invalidate a served response.
//
// The Key parameter is any type with == (std::string by default). Two
// instantiations serve the server loop:
//   * ResponseCache  (Value = CachedSolve, Key = RequestKey): the request
//     -> response cache. A RequestKey is the request's identity (the
//     workload's identity bytes + engine + seed + budget,
//     deadline excluded — see serve/protocol.h) held without copying the
//     identity bytes: it shares the parsed body's identity string and
//     carries the identity's hash plus the request fields as a short tag.
//     A hit is bit-identical to the cold solve because the cached fields
//     are exactly the deterministic part of the response (schedule CSV,
//     makespan, evals, steps).
//   * the server's parsed-body cache (Value = the parsed workload with its
//     identity, Key = the raw workload document), so repeated bodies skip
//     the parse and the identity build even when budget or engine differ.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/content_hash.h"

namespace sehc {

template <typename Value, typename Key = std::string>
class ContentLru {
 public:
  /// `capacity` == 0 disables the cache (every lookup misses, inserts are
  /// dropped); otherwise at most `capacity` entries are retained.
  explicit ContentLru(std::size_t capacity) : capacity_(capacity) {}

  /// The cached value for (hash, key), or nullopt. A hit refreshes the
  /// entry's recency.
  std::optional<Value> lookup(std::uint64_t hash, const Key& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(hash);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    if (it->second->key != key) {
      // 64-bit hash collision between distinct keys: refuse to serve the
      // wrong entry. insert() will overwrite it.
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
  void insert(std::uint64_t hash, Key key, Value value) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ == 0) return;
    auto it = index_.find(hash);
    if (it != index_.end()) {
      it->second->key = std::move(key);
      it->second->value = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    if (entries_.size() >= capacity_) {
      index_.erase(entries_.back().hash);
      entries_.pop_back();
      ++evictions_;
    }
    entries_.push_front(Entry{hash, std::move(key), std::move(value)});
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
    Key key;
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

/// The response-cache key: a request's identity, equal exactly when the
/// requests' canonical_string()s are equal (serve/protocol.h), without a
/// copy of the workload's identity bytes. `identity` is the parsed body's
/// own identity string, shared; `tag` is the identity's key_hash64 (8 native
/// bytes) followed by the request fields (canonical_fields()). Keys compare
/// the tags first, then the identities: pointer-equal (the same parsed
/// body) or byte-equal (another body with the same workload). The identity
/// is self-delimiting (each count before its items), so identity, then
/// fields, is equal exactly when the concatenation is.
struct RequestKey {
  std::shared_ptr<const std::string> identity;
  std::string tag;

  RequestKey() = default;
  RequestKey(std::shared_ptr<const std::string> identity_bytes,
             std::uint64_t identity_hash, std::string_view fields)
      : identity(std::move(identity_bytes)) {
    tag.reserve(sizeof identity_hash + fields.size());
    tag.append(reinterpret_cast<const char*>(&identity_hash),
               sizeof identity_hash);
    tag.append(fields);
  }

  /// The cache hash: covers the workload (through the identity hash in the
  /// tag) and the fields, in a pass over the tag alone.
  std::uint64_t hash() const { return key_hash64(tag); }

  friend bool operator==(const RequestKey& a, const RequestKey& b) {
    return a.tag == b.tag &&
           (a.identity == b.identity || *a.identity == *b.identity);
  }
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

using ResponseCache = ContentLru<CachedSolve, RequestKey>;

}  // namespace sehc

// Deterministic-by-construction observability core.
//
// Three metric families, all built on exact integer state so that any
// decomposition of the same logical work across threads or processes merges
// to the same snapshot:
//
//   * Counter — a monotone u64 sum. Merge = addition (commutative).
//   * Gauge   — a u64 high-water mark. Merge = max (commutative).
//   * LogHistogram — fixed log-spaced (power-of-two) buckets over u64 values
//     with exact bucket counts; quantiles are nearest-rank over the bucket
//     counts and return the bucket's lower bound, so they are pure
//     functions of the merged buckets. Merge = per-bucket addition.
//
// Plus a hierarchical phase tree: SpanScope (phase.h) pushes a frame onto a
// per-thread stack; on leave, the slash-joined path of open frames keys a
// PhaseStats node accumulating visits, rounds, and wall-clock seconds.
// Visits and rounds are deterministic; seconds is the single volatile field
// and every canonical emission drops it.
//
// MetricsRegistry keeps one shard per thread (created on first touch), so
// concurrent recording never contends on shared maps; snapshot() merges the
// shards into one canonically ordered MetricsSnapshot. The merge operators
// above make the snapshot's deterministic fields bit-identical at any
// thread count.
//
// An ambient registry (thread-local, installed via MetricsScope) lets deep
// layers — run_search, campaign cells, serve solve slots — record into the
// registry of whoever is driving them without threading a pointer through
// every signature. A null ambient registry makes every recording call a
// no-op.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace sehc {

/// Fixed-bucket log-spaced histogram over non-negative integer values.
/// Bucket 0 holds the value 0; bucket b (b >= 1) holds [2^(b-1), 2^b).
/// All state is exact u64, so merging histograms in any order yields
/// identical buckets, and bucket-derived quantiles are deterministic.
class LogHistogram {
 public:
  /// 64-bit values need bit widths 0..64 -> 65 buckets.
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t value, std::uint64_t weight = 1);
  void merge(const LogHistogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  /// Exact min/max of recorded values (0 when empty). u64 min/max are
  /// commutative, so these survive merging exactly.
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }

  /// Nearest-rank quantile over the bucket counts: the lower bound of the
  /// bucket containing rank ceil(q * count). 0 for an empty histogram.
  /// Deterministic because it reads only merged integer state.
  std::uint64_t quantile(double q) const;

  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }
  /// Lower bound of bucket b: 0 for b == 0, else 2^(b-1).
  static std::uint64_t bucket_floor(std::size_t b);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// One node of the phase tree, keyed by its slash-joined path (e.g.
/// "cell/engine:SE"). visits/rounds are deterministic; seconds is volatile.
struct PhaseStats {
  std::uint64_t visits = 0;
  std::uint64_t rounds = 0;
  double seconds = 0.0;
};

/// A merged, canonically ordered (name-sorted) view of a registry.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<std::pair<std::string, LogHistogram>> histograms;
  std::vector<std::pair<std::string, PhaseStats>> phases;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           phases.empty();
  }

  /// Deterministic text form: one line per metric, volatile seconds
  /// omitted, histogram buckets spelled out. Byte-identical for any
  /// thread/shard decomposition of the same work — the contract the merge
  /// tests pin.
  std::string canonical() const;

  /// JSON object with four sub-objects (counters/gauges/histograms/
  /// phases). Includes the volatile "ms" field on phases — meant for bench
  /// artifacts and the serve endpoint, not for byte-compared outputs.
  /// `indent` shifts every line right (for embedding in larger documents).
  std::string to_json(int indent = 0) const;
};

/// Thread-sharded metric sink. All recording methods are safe to call from
/// any thread; each thread writes its own shard. snapshot() may run
/// concurrently with recorders.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void counter_add(std::string_view name, std::uint64_t delta = 1);
  /// Gauge semantics: high-water mark (merge = max).
  void gauge_max(std::string_view name, std::uint64_t value);
  void hist_record(std::string_view name, std::uint64_t value,
                   std::uint64_t weight = 1);
  /// Adds directly to the phase node at `path` — for phases measured with
  /// explicit timestamps (e.g. queue/solve latencies that span threads and
  /// cannot be a lexical scope).
  void phase_record(std::string_view path, std::uint64_t visits,
                    std::uint64_t rounds, double seconds);

  // Per-thread span stack — used by SpanScope (phase.h).
  // Enter/leave must be balanced on each thread; leave() records a visit
  // into the node keyed by the slash-joined path of the open frames.
  void span_enter(std::string_view name);
  void span_rounds(std::uint64_t n);
  void span_leave();

  MetricsSnapshot snapshot() const;

 private:
  struct Frame {
    std::string name;
    std::chrono::steady_clock::time_point start;
    std::uint64_t rounds = 0;
  };
  struct Shard {
    std::mutex mu;
    std::map<std::string, std::uint64_t, std::less<>> counters;
    std::map<std::string, std::uint64_t, std::less<>> gauges;
    std::map<std::string, LogHistogram, std::less<>> histograms;
    std::map<std::string, PhaseStats, std::less<>> phases;
    std::vector<Frame> stack;
  };

  Shard& local_shard() const;

  mutable std::mutex mu_;
  mutable std::map<std::thread::id, std::unique_ptr<Shard>> shards_;
};

/// The thread's ambient registry (null when none is installed).
MetricsRegistry* ambient_metrics();

/// RAII install of an ambient registry on the current thread; restores the
/// previous one on destruction. Passing null silences recording in scope.
class MetricsScope {
 public:
  explicit MetricsScope(MetricsRegistry* registry);
  ~MetricsScope();
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  MetricsRegistry* previous_;
};

}  // namespace sehc

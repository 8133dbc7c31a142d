// The traced run's instrumentation, all of it outside the library: an
// in-memory span recorder, an engine decorator that records init()/step()
// spans, layer probes for the code below the engines, and the reduction of
// spans to the per-layer metrics.
//
// A span holds its name, start, end, parent span and op id. A layer's self
// time is its span minus the part its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "search/engine.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // since process_start()
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   // index in the same recorder; -1 = root
  std::int64_t op = -1;       // -1 = not part of an op (set-up, probes)
  std::uint32_t calls = 1;    // calls the span covers (probe loops)
  double a = 0.0;             // layer-specific counts, see trace.cpp
  double b = 0.0;
  bool flag = false;
};

/// Span recorder of one thread. A disabled recorder records nothing and
/// costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one (inheriting its op id when
  /// `op` is -1). Returns its index, or -1 when disabled.
  std::int32_t open(const char* name, std::int64_t op = -1);
  void close(std::int32_t index);
  /// Valid until the next open().
  Span* at(std::int32_t index) { return index < 0 ? nullptr : &spans_[index]; }

  const std::vector<Span>& spans() const { return spans_; }
  /// Appends another recorder's closed spans, re-basing parent indices.
  void absorb(const Tracer& other);
  void write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t op = -1)
      : tracer_(tracer), index_(tracer.open(name, op)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Null when the recorder is disabled.
  Span* span() { return tracer_.at(index_); }

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

/// make_search_engine + run_search. With an enabled recorder the engine is
/// wrapped so every init()/step() is a span, inside one `search.<engine>`
/// span whose self time is the driver's own.
sehc::SearchResult traced_search(Tracer& tracer, const std::string& engine,
                                 const sehc::Workload& w,
                                 const sehc::Budget& budget,
                                 std::uint64_t seed);

/// Times the layers below the engines on `instances`: make_workload,
/// workload_to_string / workload_from_string, topological_order,
/// random_initial_solution, Evaluator::makespan and SE-shaped
/// checkpoint-mode TrialBatch reassign scans. One span per probe loop.
void run_layer_probes(Tracer& tracer,
                      const std::vector<sehc::WorkloadParams>& instances,
                      std::uint64_t seed);

/// Every per-layer metric, in BENCHMARK.json order, from the merged spans
/// plus the figures a workload measures outside spans (`extras`, keyed by
/// metric name; the exp.*, serve stats and trace.overhead_ops_per_s
/// entries). A layer the workload never calls reads 0.
void add_layer_metrics(Report& report, const Tracer& spans,
                       const std::map<std::string, double>& extras);

/// Per-span-name calls, total and self milliseconds, for the log.
std::string self_time_table(const Tracer& spans);

}  // namespace perfbench

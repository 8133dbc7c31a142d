// RAII driver for the registry's hierarchical phase tree.
//
// SpanScope is the lexical form: construct to enter a phase, destruct to
// leave — exception unwinding closes the span, so a phase that throws still
// records its visit (with whatever rounds were added before the throw).
// Nesting scopes on one thread builds slash-joined paths ("cell/engine:SE")
// because the registry keys the phase node by the full stack of open
// frames at leave time. Phases that span threads (a request's queue wait,
// say) have no lexical scope; they go to MetricsRegistry::phase_record.
//
// A SpanScope is a no-op when constructed with a null registry, so call
// sites can pass ambient_metrics() unconditionally.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/metrics.h"

namespace sehc {

class SpanScope {
 public:
  SpanScope(MetricsRegistry* registry, std::string_view name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Adds round counts (steps, items, iterations) to this span's node.
  void add_rounds(std::uint64_t n);

 private:
  MetricsRegistry* registry_;
};

}  // namespace sehc

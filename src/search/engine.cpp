#include "search/engine.h"

#include <cmath>

#include "core/error.h"
#include "core/table.h"
#include "obs/phase.h"

namespace sehc {

Deadline Deadline::after(double seconds) {
  SEHC_CHECK(seconds > 0.0 && std::isfinite(seconds),
             "Deadline::after: seconds must be positive and finite");
  Deadline d;
  d.armed_ = true;
  d.at_ = clock::now() + std::chrono::duration_cast<clock::duration>(
                             std::chrono::duration<double>(seconds));
  d.budget_seconds_ = seconds;
  return d;
}

Budget Budget::steps(std::size_t n) {
  Budget b;
  b.kind = Kind::kSteps;
  b.count = n;
  return b;
}

Budget Budget::evals(std::size_t n) {
  Budget b;
  b.kind = Kind::kEvals;
  b.count = n;
  return b;
}

Budget Budget::seconds(double s) {
  Budget b;
  b.kind = Kind::kSeconds;
  b.wall_seconds = s;
  return b;
}

double Budget::axis_end() const {
  return kind == Kind::kSeconds ? wall_seconds : static_cast<double>(count);
}

std::string Budget::describe() const {
  switch (kind) {
    case Kind::kSteps:
      return std::to_string(count) + " steps";
    case Kind::kEvals:
      return std::to_string(count) + " evals";
    case Kind::kSeconds:
      return format_fixed(wall_seconds, 2) + " s";
  }
  return "?";
}

void Budget::validate() const {
  if (kind == Kind::kSeconds) {
    SEHC_CHECK(wall_seconds > 0.0 && std::isfinite(wall_seconds),
               "Budget: wall-clock budget must be positive and finite");
  } else {
    SEHC_CHECK(count > 0, "Budget: step/eval budget must be positive");
  }
}

bool budget_exhausted(const Budget& budget, const SearchEngine& engine) {
  switch (budget.kind) {
    case Budget::Kind::kSteps:
      return engine.steps_done() >= budget.count;
    case Budget::Kind::kEvals:
      return engine.evals_used() >= budget.count;
    case Budget::Kind::kSeconds:
      return engine.elapsed_seconds() >= budget.wall_seconds;
  }
  return true;
}

double budget_axis_value(const Budget& budget, const StepStats& stats) {
  switch (budget.kind) {
    case Budget::Kind::kSteps:
      return static_cast<double>(stats.step + 1);
    case Budget::Kind::kEvals:
      return static_cast<double>(stats.evals_used);
    case Budget::Kind::kSeconds:
      return stats.elapsed_seconds;
  }
  return 0.0;
}

SearchResult run_search(SearchEngine& engine, const Budget& budget,
                        const StepObserver& observer,
                        const Deadline& deadline) {
  budget.validate();
  engine.init();
  // One span per drive, flushed once at the end: the step loop itself pays
  // only a double compare per step, never a registry lookup. The span
  // nests under whatever phase the caller has open (campaign cells, serve
  // solve slots); a deadline that unwinds mid-run still records the span
  // visit via SpanScope, just without the terminal counter flush.
  MetricsRegistry* const metrics = ambient_metrics();
  SpanScope span(metrics, "engine:" + engine.name());
  bool timed_out = false;
  std::uint64_t improvements = 0;
  double last_best = engine.best_makespan();
  while (!engine.done() && !budget_exhausted(budget, engine)) {
    if (deadline.expired()) {
      timed_out = true;
      break;
    }
    const StepStats stats = engine.step();
    if (stats.best_makespan < last_best) {
      last_best = stats.best_makespan;
      ++improvements;
    }
    if (observer && !observer(stats)) break;
  }
  SearchResult result;
  result.timed_out = timed_out;
  result.best_makespan = engine.best_makespan();
  result.steps = engine.steps_done();
  result.evals = engine.evals_used();
  result.seconds = engine.elapsed_seconds();
  result.schedule = engine.best_schedule();
  if (metrics != nullptr) {
    span.add_rounds(result.steps);
    const std::string prefix = "engine/" + engine.name() + "/";
    metrics->counter_add(prefix + "steps", result.steps);
    metrics->counter_add(prefix + "evals", result.evals);
    metrics->counter_add(prefix + "improvements", improvements);
  }
  return result;
}

}  // namespace sehc

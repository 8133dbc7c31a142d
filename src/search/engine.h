// Unified stepwise search-engine core.
//
// Every iterative searcher in the library (SE, GA, GSA, tabu, simulated
// annealing, random search) implements one interface: construct, init(),
// then step() one unit of work at a time — an SE iteration, a GA/GSA
// generation, a tabu/annealing move, one random sample. A shared Budget
// type expresses the three budget currencies the comparison suite uses
// (step count, evaluator-trial count, wall-clock seconds) and external
// drivers (run_search, run_anytime, the campaign cells) enforce it between
// steps, so any two searchers can be compared under *equal* budgets — the
// paper's central experimental requirement — without each searcher growing
// its own loop variant.
//
// Determinism contract: init() + N x step() consumes exactly the RNG
// stream of the searcher's historical monolithic run() loop, which is now
// a thin wrapper over this interface. Differential tests pin the wrapper
// and externally-driven paths bit-identical (schedules, stats, RNG
// streams) at fixed seeds; wall-clock budgets are the one currency whose
// stopping point depends on real time.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "core/error.h"
#include "sched/schedule.h"

namespace sehc {

/// Cooperative wall-clock watchdog checked by the generic step drivers
/// between engine steps. A default-constructed Deadline is unlimited (the
/// check is a single branch); an armed one costs one steady_clock read per
/// step — engine steps are chunky (tens to thousands of evaluator trials),
/// so the driver overhead stays within the perf_hotpath --check-overhead
/// gate. This is external preemption: the Budget currencies say how much
/// work a search MAY do, a Deadline says when the caller stops waiting
/// (runaway cells, campaign watchdogs, serving timeouts).
class Deadline {
 public:
  /// Unlimited: never expires.
  Deadline() = default;

  /// Expires `seconds` of wall-clock time from now (must be positive and
  /// finite; throws sehc::Error otherwise).
  static Deadline after(double seconds);

  bool unlimited() const { return !armed_; }

  /// True once the wall clock has passed the deadline (always false for an
  /// unlimited deadline).
  bool expired() const { return armed_ && clock::now() >= at_; }

  /// The seconds the deadline was armed with (0 when unlimited). Used for
  /// diagnostics — deterministic, unlike a measured elapsed time.
  double budget_seconds() const { return budget_seconds_; }

 private:
  using clock = std::chrono::steady_clock;
  bool armed_ = false;
  clock::time_point at_{};
  double budget_seconds_ = 0.0;
};

/// Thrown by drivers (run_anytime, campaign cells) when a Deadline expires
/// mid-search. Distinct from Error so isolation layers can label the
/// failure as a timeout rather than a crash.
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

/// A search budget in one of three currencies.
///
///   * kSteps   — engine steps (SE iterations == GA/GSA generations ==
///                tabu/annealing moves == random samples);
///   * kEvals   — evaluator trials (schedule simulations), the honest
///                apples-to-apples currency across engines whose steps do
///                wildly different amounts of work;
///   * kSeconds — wall-clock seconds (the paper's Figures 5-7 regime).
///
/// Budgets are enforced *between* steps: a step is atomic, so an engine may
/// overshoot an eval budget by the trials of its final step.
struct Budget {
  enum class Kind { kSteps, kEvals, kSeconds };

  Kind kind = Kind::kSteps;
  /// kSteps / kEvals count (unused for kSeconds).
  std::size_t count = 0;
  /// kSeconds budget (unused otherwise).
  double wall_seconds = 0.0;

  static Budget steps(std::size_t n);
  static Budget evals(std::size_t n);
  static Budget seconds(double s);

  /// The budget's end coordinate on its own axis (count or seconds).
  double axis_end() const;

  /// Human-readable form, e.g. "250 steps", "20000 evals", "4.00 s".
  std::string describe() const;

  /// Throws sehc::Error unless the budget is positive.
  void validate() const;
};

/// Uniform per-step statistics every engine reports. Engines with richer
/// per-step data (SE selection sizes, GA generation means, GSA
/// temperatures) keep recording their own trace structs; this is the
/// lowest common denominator the generic drivers and observers see.
struct StepStats {
  /// 0-based index of the step that just completed.
  std::size_t step = 0;
  /// The engine's current working value after the step (current solution /
  /// generation best / last sample; engines without a natural "current"
  /// report the best).
  double current_makespan = 0.0;
  /// Best makespan seen so far.
  double best_makespan = 0.0;
  /// Cumulative evaluator trials consumed since init().
  std::size_t evals_used = 0;
  /// Wall-clock seconds since init().
  double elapsed_seconds = 0.0;
};

/// Uniform observer hook: invoked by the generic drivers after every step;
/// return false to stop the run early.
using StepObserver = std::function<bool(const StepStats&)>;

/// The stepwise engine interface. Usage:
///
///   engine.init();
///   while (!engine.done() && !budget_exhausted(budget, engine))
///     engine.step();
///
/// (or just run_search(engine, budget)). init() may be called again to
/// restart the engine from scratch with its original seed.
class SearchEngine {
 public:
  virtual ~SearchEngine() = default;

  /// Stable identifier: the scheduler registry name the engine was built
  /// from ("SE", "GA", ..., "HEFT"; see heuristics/scheduler.h).
  virtual std::string name() const = 0;

  /// Builds the initial state (initial solution / population), consuming
  /// exactly the RNG prefix the monolithic run() consumed before its first
  /// iteration. Resets step/eval counters and the wall-clock origin.
  virtual void init() = 0;

  /// Executes one unit of work. init() must have been called.
  virtual StepStats step() = 0;

  /// True when an engine-internal stopping criterion holds (its own
  /// step cap, stall rule, time limit, or an observer-requested stop).
  /// External budgets are enforced by the driver, not here.
  virtual bool done() const = 0;

  virtual double best_makespan() const = 0;
  /// Completed steps since init().
  virtual std::size_t steps_done() const = 0;
  /// Evaluator trials consumed since init().
  virtual std::size_t evals_used() const = 0;
  /// Wall-clock seconds since init().
  virtual double elapsed_seconds() const = 0;
  /// Materializes the best solution found so far as a full schedule.
  virtual Schedule best_schedule() const = 0;
};

/// True once `engine` has consumed `budget` (checked between steps).
bool budget_exhausted(const Budget& budget, const SearchEngine& engine);

/// The x coordinate of `stats` on the budget's axis: completed steps
/// (1-based), cumulative evals, or elapsed seconds.
double budget_axis_value(const Budget& budget, const StepStats& stats);

/// Outcome of a driven search.
struct SearchResult {
  Schedule schedule;
  double best_makespan = 0.0;
  std::size_t steps = 0;
  std::size_t evals = 0;
  double seconds = 0.0;
  /// True when the run was preempted by the driver's Deadline rather than
  /// finishing its budget or stopping on its own. The best-so-far fields
  /// above are still valid (init() always produces a complete solution).
  bool timed_out = false;
};

/// Generic driver: init(), then step() until the engine is done, the budget
/// is exhausted, or `deadline` expires (checked cooperatively between
/// steps — a step is atomic, so preemption waits for the running step to
/// finish). Invokes `observer` (when set) after each step.
SearchResult run_search(SearchEngine& engine, const Budget& budget,
                        const StepObserver& observer = {},
                        const Deadline& deadline = {});

}  // namespace sehc
